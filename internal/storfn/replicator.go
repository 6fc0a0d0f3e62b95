package storfn

import (
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
)

// Replicator is the live disk-replication UIF: the classifier already sent
// the write to the local primary disk (fast path); this UIF forwards the
// same write to the remote secondary disk through io_uring over the
// NVMe-oF initiator. Mirroring is synchronous — the router completes the
// guest request only when both legs finish — which lets the VM's buffers
// be reused immediately, as the paper notes.
//
// When the secondary leg fails (media error on the remote disk, or the
// fabric exhausts its retries), the Replicator degrades rather than
// failing the guest write: the primary already holds the data, so the
// guest completes successfully and the stale LBA range is recorded in
// Dirty for a later resync.
type Replicator struct {
	// CopyRate models pulling the write payload out of guest memory.
	CopyRate float64

	// Dirty is the set of guest LBA ranges whose secondary copy is stale.
	Dirty DirtyRegions

	// Guard, when set, verifies the payload pulled from guest memory
	// against its protection info before it is fanned out to the mirror:
	// a payload corrupted between stamping and forwarding must not
	// propagate to the replica.
	Guard BlockVerifier

	// resync, when attached (NewResyncer), observes secondary-leg
	// outcomes to drive the mirror-consistency state machine.
	resync *Resyncer

	// Stats
	Forwarded       uint64
	Degraded        uint64 // guest writes acknowledged from the primary alone
	SecondaryErrors uint64 // non-OK secondary-leg completions observed
	GuardErrors     uint64 // payloads failing protection-info verification
}

// BlockVerifier checks a payload against per-block protection info,
// keyed by device-absolute LBA (satisfied by *integrity.Guard).
type BlockVerifier interface {
	Verify(lba uint64, data []byte) bool
}

// NewReplicator creates the mirroring UIF.
func NewReplicator() *Replicator { return &Replicator{CopyRate: 10e9} }

// Work implements uif.Handler.
func (r *Replicator) Work(p *sim.Proc, th *sim.Thread, req *uif.Request) (bool, nvme.Status) {
	if req.Cmd.Opcode() != nvme.OpWrite {
		// Reads are filtered out by the classifier and never reach us.
		return false, nvme.SCInvalidOpcode
	}
	n := int(req.NBytes())
	buf := req.Buffer(n)
	if err := req.ReadData(buf); err != nil {
		return false, nvme.SCDataXferError
	}
	th.Exec(p, sim.Duration(float64(n)/r.CopyRate*1e9))
	lba, blocks := req.Cmd.SLBA(), uint64(req.Cmd.Blocks())
	if r.Guard != nil && !r.Guard.Verify(lba, buf) {
		// The payload no longer matches its protection info: either it was
		// corrupted between stamping and forwarding, or a racing guest
		// write re-stamped the range after this payload was captured. Both
		// are indistinguishable here and neither may fail the guest write
		// (the primary leg carries the stamped data) — mark the range
		// dirty so resync re-copies it from the verified primary.
		r.GuardErrors++
		r.Dirty.Add(lba, blocks)
		if r.resync != nil {
			r.resync.noteSecondaryFailure(lba, blocks)
		}
	}
	r.Forwarded++
	req.SubmitBackendWriteThen(p, th, buf, func(p *sim.Proc, th *sim.Thread, st nvme.Status) {
		if !st.OK() {
			// Degraded mode: the primary write (fast path) carries the
			// data; mark the region dirty and acknowledge the guest.
			r.SecondaryErrors++
			r.Degraded++
			r.Dirty.Add(lba, blocks)
			if r.resync != nil {
				r.resync.noteSecondaryFailure(lba, blocks)
			}
			st = nvme.SCSuccess
		} else if r.resync != nil {
			// A mirrored write that lands inside the in-flight resync
			// window may be clobbered by the stale copy; re-dirty it.
			r.resync.noteGuestWrite(lba, blocks)
		}
		req.CompleteAsync(st)
	})
	return true, 0
}
