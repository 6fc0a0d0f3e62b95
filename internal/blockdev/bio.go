// Package blockdev models the host kernel's block layer: bios, the
// NVMe-backed block device (driver submission plus interrupt-context
// completion), an io_uring-style asynchronous submission ring, and the DMA
// buffer pool that backs kernel-space data. Device-mapper targets stack on
// the BlockDevice interface (package dm), and the vhost/QEMU baselines as
// well as NVMetro's kernel path and UIFs all submit through here.
package blockdev

import (
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// SectorSize is the kernel sector unit (512 bytes, as in Linux).
const SectorSize = 512

// BioOp is a block operation type.
type BioOp uint8

// Bio operations.
const (
	BioRead BioOp = iota
	BioWrite
	BioFlush
	BioDiscard
)

func (o BioOp) String() string {
	switch o {
	case BioRead:
		return "read"
	case BioWrite:
		return "write"
	case BioFlush:
		return "flush"
	case BioDiscard:
		return "discard"
	}
	return "?"
}

// Bio is one block I/O request in host kernel space.
type Bio struct {
	Op     BioOp
	Sector uint64 // first 512-byte sector
	Data   []byte // host buffer (nil for flush/discard; Sectors for discard length)
	NSect  uint32 // sector count for data-less ops
	// OnDone runs in completion (interrupt or worker) context and must not
	// block on simulation primitives.
	OnDone func(nvme.Status)
}

// sectors returns the bio's length in sectors.
func (b *Bio) sectors() uint32 {
	if b.Data != nil {
		return uint32(len(b.Data) / SectorSize)
	}
	return b.NSect
}

// BlockDevice is a host-side block device: the stackable unit of the block
// layer. Submission charges the calling thread; completion is asynchronous.
type BlockDevice interface {
	// SubmitFunc queues the bio on behalf of thread, which identifies the
	// submitting kernel context for CPU accounting. It runs in scheduler
	// context and blocks nowhere: then runs once the submitter may go on,
	// as the last act of the event that lets it, and b.OnDone runs at
	// completion.
	SubmitFunc(thread *sim.Thread, b *Bio, then func())
	// SubmitBio is SubmitFunc for a submitter that is a process: every
	// implementation is SubmitAndWait, which the module's process callers
	// call directly (bench/ still calls this form).
	SubmitBio(p *sim.Proc, thread *sim.Thread, b *Bio)
}

// SubmitAndWait submits b to dev from process p and parks p until then
// would run. The process resumes as part of that event (sim.Proc.Await), so
// its view is that of a blocking submission.
func SubmitAndWait(p *sim.Proc, dev BlockDevice, thread *sim.Thread, b *Bio) {
	p.Await(func(then func()) { dev.SubmitFunc(thread, b, then) })
}

// SubmitNVMe is NVMetro's kernel path: it translates an NVMe I/O command
// against guest memory mem into one bio on dev, submitted from thread.
// lbaShift is the command's LBA size. Data moves through a kernel bounce
// buffer: a write's payload is copied in from the command's PRPs before
// submission, a read's is copied back on completion. Flush and DSM become
// flush and discard bios. The kernel path only understands Linux storage
// semantics, so any other opcode completes SCInvalidOpcode at once (the
// paper sends NVMe- and vendor-specific commands down the fast path), and a
// transfer whose PRPs do not walk completes SCDataXferError. done runs in
// completion context and must not block.
func SubmitNVMe(dev BlockDevice, thread *sim.Thread, lbaShift uint8, cmd nvme.Command, mem nvme.Memory, done func(nvme.Status)) {
	b := &Bio{Sector: cmd.SLBA() << lbaShift / SectorSize, OnDone: done}
	switch op := cmd.Opcode(); op {
	case nvme.OpFlush:
		b.Op, b.Sector = BioFlush, 0
	case nvme.OpDSM:
		b.Op, b.NSect = BioDiscard, uint32(uint64(cmd.Blocks())<<lbaShift/SectorSize)
	case nvme.OpRead, nvme.OpWrite:
		n := cmd.Blocks() << lbaShift
		segs, err := nvme.WalkPRP(mem, cmd.PRP1(), cmd.PRP2(), n)
		if err != nil {
			done(nvme.SCDataXferError)
			return
		}
		b.Data = make([]byte, n)
		if op == nvme.OpWrite {
			if err := nvme.ReadSegments(mem, segs, b.Data); err != nil {
				done(nvme.SCDataXferError)
				return
			}
			b.Op = BioWrite
			break
		}
		b.Op = BioRead
		b.OnDone = func(st nvme.Status) {
			if st.OK() && nvme.WriteSegments(mem, segs, b.Data) != nil {
				st = nvme.SCDataXferError
			}
			done(st)
		}
	default:
		done(nvme.SCInvalidOpcode)
		return
	}
	dev.SubmitFunc(thread, b, func() {})
}

// Costs models per-bio block layer CPU costs (submission path through the
// request queue and NVMe driver; completion handling in IRQ context).
type Costs struct {
	Submit   sim.Duration
	Complete sim.Duration
}

// DefaultCosts returns the calibrated block layer cost model.
func DefaultCosts() Costs {
	return Costs{Submit: 3 * sim.Microsecond, Complete: 2 * sim.Microsecond}
}
