package storfn_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// replBed is the full replication wiring plus a resync engine: local host
// with the Replicator UIF, remote host over a fabric link, and a Resyncer
// reading the primary through its own host block device.
type replBed struct {
	h      *host
	v      *vm.VM
	disk   *vm.NVMeDisk
	rep    *storfn.Replicator
	rs     *storfn.Resyncer
	ini    *nvmeof.Initiator
	link   *nvmeof.Link
	rstore *device.MemStore
}

// tightOfRecovery makes secondary-leg failures resolve fast enough for
// millisecond-scale outage tests: one 500 µs attempt (still 5x the
// worst-case healthy read RTT), no retries.
var tightOfRecovery = nvmeof.InitiatorRecovery{
	Timeout:    500 * sim.Microsecond,
	MaxRetries: 0,
	Backoff:    50 * sim.Microsecond,
}

func newReplBed(t *testing.T, rcfg storfn.ResyncConfig) *replBed {
	t.Helper()
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()
	prog, _ := storfn.ReplicatorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	remoteCPU := sim.NewCPU(h.env, 4)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rstore := device.NewMemStore(512)
	rdev := device.New(h.env, rp, rstore)
	rbdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(rdev, 1), remoteCPU, 3, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(h.env)
	tgt := nvmeof.NewTarget(h.env, rbdev, remoteCPU)
	ini := nvmeof.NewInitiator(h.env, link, tgt)
	if err := ini.SetRecovery(tightOfRecovery); err != nil {
		t.Fatal(err)
	}

	rep := storfn.NewReplicator()
	ring := blockdev.NewURing(h.env, ini, blockdev.DefaultURingCosts())
	att := h.fw.Attach(vc.AttachUIF(256), rep, ring)

	primary := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(h.dev, 1), h.cpu, 12, blockdev.DefaultCosts())
	rs, err := storfn.NewResyncer(h.env, rep, primary, att, h.cpu.ThreadOn(13, "resync"), h.dev.Params().LBAShift, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ini.OnReconnect(rs.Trigger)
	return &replBed{h: h, v: v, disk: disk, rep: rep, rs: rs, ini: ini, link: link, rstore: rstore}
}

// waitInSync sleeps in 1 ms steps until the mirror reaches InSync.
func (b *replBed) waitInSync(t *testing.T, p *sim.Proc, bound sim.Duration) {
	t.Helper()
	deadline := p.Now().Add(bound)
	for b.rs.State() != storfn.StateInSync && p.Now() < deadline {
		p.Sleep(sim.Millisecond)
	}
	if b.rs.State() != storfn.StateInSync {
		t.Fatalf("mirror did not converge: state=%v dirty=%d", b.rs.State(), b.rep.Dirty.Blocks())
	}
}

// TestResyncAfterOutageConverges: writes landing during a fabric outage
// degrade the mirror; the link-up callback triggers a resync that copies
// the dirty region back, passes verification and returns to InSync with a
// bit-identical secondary.
func TestResyncAfterOutageConverges(t *testing.T) {
	b := newReplBed(t, storfn.DefaultResyncConfig())
	b.link.ScheduleOutage(0, 2*sim.Millisecond)

	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	b.h.run(t, func(p *sim.Proc) {
		if st := doIO(p, b.v, b.disk, vm.OpWrite, 200, data); !st.OK() {
			t.Fatalf("degraded write failed the guest: %v", st)
		}
		if b.rs.State() != storfn.StateDegraded {
			t.Fatalf("after outage write: state=%v (want Degraded)", b.rs.State())
		}
		if b.rep.Dirty.Blocks() != 16 {
			t.Fatalf("dirty blocks %d, want 16", b.rep.Dirty.Blocks())
		}
		b.waitInSync(t, p, 50*sim.Millisecond)

		got := make([]byte, len(data))
		b.rstore.ReadBlocks(200, got)
		if !bytes.Equal(got, data) {
			t.Fatal("secondary content differs after resync")
		}
	})
	if b.rep.Dirty.Blocks() != 0 {
		t.Fatalf("leaked dirty blocks: %v", b.rep.Dirty.Ranges())
	}
	if b.rs.ResyncedBlocks != 16 || b.rs.Passes != 1 || b.rs.VerifiedBlocks != 16 {
		t.Fatalf("resynced=%d passes=%d verified=%d", b.rs.ResyncedBlocks, b.rs.Passes, b.rs.VerifiedBlocks)
	}
	if b.rs.VerifyMismatches != 0 {
		t.Fatalf("verify mismatches on quiesced traffic: %d", b.rs.VerifyMismatches)
	}
	if b.rs.Triggers == 0 || b.rs.ToInSync != 1 {
		t.Fatalf("triggers=%d to_insync=%d", b.rs.Triggers, b.rs.ToInSync)
	}
}

// TestResyncOutageMidResync: a second outage lands while the (slow,
// tightly rate-limited) resync is draining. The failing chunk must be
// re-dirtied, the state machine must fall back to Degraded, and the next
// link-up must resume and converge without losing any range.
func TestResyncOutageMidResync(t *testing.T) {
	cfg := storfn.DefaultResyncConfig()
	cfg.Rate = 160e6 // 160 MB/s: 4 MiB of dirty data (32 chunks) takes ~25 ms to copy
	b := newReplBed(t, cfg)
	// First outage covers all 64 degraded writes (~0.55 ms each); the
	// second lands 2 ms into the ~25 ms drain that the first triggers.
	b.link.ScheduleOutage(0, 50*sim.Millisecond)
	b.link.ScheduleOutage(sim.Time(0).Add(52*sim.Millisecond), 2*sim.Millisecond)

	const writes, blocks = 64, 128
	data := make([]byte, blocks*512)
	b.h.run(t, func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			for j := range data {
				data[j] = byte(j*5 + i + 1)
			}
			if st := doIO(p, b.v, b.disk, vm.OpWrite, uint64(i*blocks), data); !st.OK() {
				t.Fatalf("write %d failed the guest: %v", i, st)
			}
		}
		if b.rep.Dirty.Blocks() != writes*blocks {
			t.Fatalf("dirty blocks %d, want %d", b.rep.Dirty.Blocks(), writes*blocks)
		}
		b.waitInSync(t, p, 500*sim.Millisecond)
	})
	if b.rs.Aborts == 0 || b.rs.Errors == 0 {
		t.Fatalf("second outage did not abort the resync: aborts=%d errors=%d", b.rs.Aborts, b.rs.Errors)
	}
	if b.rs.ToResyncing < 2 {
		t.Fatalf("resync not retriggered after mid-resync outage: to_resyncing=%d", b.rs.ToResyncing)
	}
	if b.rep.Dirty.Blocks() != 0 {
		t.Fatalf("leaked dirty blocks: %v", b.rep.Dirty.Ranges())
	}
	// Convergence must be bit-identical: every block the guest wrote is
	// on both legs with the same contents.
	if pc, sc := b.h.store.ContentCRC(), b.rstore.ContentCRC(); pc != sc {
		t.Fatalf("mirror contents diverge after resync: primary=%08x secondary=%08x", pc, sc)
	}
	if b.rs.ResyncedBlocks < writes*blocks {
		t.Fatalf("resynced %d blocks, want >= %d", b.rs.ResyncedBlocks, writes*blocks)
	}
}

// TestResyncRedirtiesConcurrentWrite: guest writes keep flowing while the
// resync drains. Writes landing in the in-flight window are re-dirtied
// and recopied; the mirror still converges once traffic stops, and both
// stores end bit-identical.
func TestResyncRedirtiesConcurrentWrite(t *testing.T) {
	cfg := storfn.DefaultResyncConfig()
	cfg.Rate = 160e6 // slow drain (~0.8 ms a chunk) so foreground writes overlap it
	b := newReplBed(t, cfg)
	b.link.ScheduleOutage(0, 5*sim.Millisecond)

	const blocks = 256 // one resync chunk per write
	data := make([]byte, blocks*512)
	b.h.run(t, func(p *sim.Proc) {
		// Dirty [0, 32 chunks) during the outage.
		for i := 0; i < 32; i++ {
			for j := range data {
				data[j] = byte(j + i)
			}
			if st := doIO(p, b.v, b.disk, vm.OpWrite, uint64(i*blocks), data); !st.OK() {
				t.Fatalf("write %d: %v", i, st)
			}
		}
		// Keep writing the same region while the resync drains it.
		for i := 0; i < 32; i++ {
			for j := range data {
				data[j] = byte(j ^ (i * 3))
			}
			if st := doIO(p, b.v, b.disk, vm.OpWrite, uint64((i%32)*blocks), data); !st.OK() {
				t.Fatalf("overwrite %d: %v", i, st)
			}
			p.Sleep(200 * sim.Microsecond)
		}
		b.waitInSync(t, p, 500*sim.Millisecond)
	})
	if pc, sc := b.h.store.ContentCRC(), b.rstore.ContentCRC(); pc != sc {
		t.Fatalf("mirror contents diverge: primary=%08x secondary=%08x", pc, sc)
	}
	if b.rep.Dirty.Blocks() != 0 {
		t.Fatalf("leaked dirty blocks: %v", b.rep.Dirty.Ranges())
	}
}
