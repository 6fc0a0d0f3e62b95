package uif_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
)

// These tests pin the poll loops' virtual-time behaviour to figures recorded
// with one scheduled Exec per poll round (the loops before sim.Thread.Spin
// took over their idle rounds). Spin must reproduce them exactly; a change to
// the cost model legitimately moves them.

// encryptedRoundTrips drives n write+read pairs through the notify path.
func encryptedRoundTrips(t *testing.T, r *uifRig, p *sim.Proc, n int) {
	t.Helper()
	base, _, _ := r.v.Mem.AllocBuffer(512)
	r.v.Mem.WriteAt(bytes.Repeat([]byte{0x5a}, 512), base)
	for i := 0; i < n; i++ {
		for _, op := range []uint8{nvme.OpWrite, nvme.OpRead} {
			cmd := nvme.NewRW(op, uint16(2*i)+uint16(op&1), 1, uint64(i), 1, base, 0)
			if st := r.submit(p, cmd); !st.OK() {
				t.Fatalf("io %d op %#x: %v", i, op, st)
			}
		}
	}
}

// TestSpinSharedCoreStaleGather puts the router worker and the UIF poller on
// one core, so each one's empty gather is regularly followed by a wait for
// the core while the other runs — and possibly hands it work. A spin that
// fast-forwards after such a wait acts on a stale gather; it has to charge
// exactly one round and look again.
func TestSpinSharedCoreStaleGather(t *testing.T) {
	enc, err := storfn.NewEncryptor(bytes.Repeat([]byte{1}, 64), storfn.DefaultEncryptorCosts())
	if err != nil {
		t.Fatal(err)
	}
	r := newUIFRigOn(t, []int{8}, enc)
	var end sim.Time
	var use sim.CPUUsage
	r.run(t, func(p *sim.Proc) {
		snap := r.cpu.Snapshot()
		encryptedRoundTrips(t, r, p, 20)
		end = p.Now()
		use = r.cpu.Since(snap)
	})
	if end != 2546000 || use.ByTag["router"] != 1158550 || use.ByTag["uif"] != 1387280 || r.fw.Polls != 4280 {
		t.Fatalf("end=%d router=%d uif=%d polls=%d; the per-round loops gave end=2546000 router=1158550 uif=1387280 polls=4280",
			end, use.ByTag["router"], use.ByTag["uif"], r.fw.Polls)
	}
}

// TestSpinAfterTimedEmptySweep covers the sweep that takes virtual time and
// still finds nothing: reaping a ring completion whose owner is gone is
// charged but is not work. Work deferred during that reap lands on a source
// the sweep has already passed, and no hint reaches an awake poller, so the
// poller may not fast-forward: the very next round has to pick it up.
func TestSpinAfterTimedEmptySweep(t *testing.T) {
	enc, _ := storfn.NewEncryptor(make([]byte, 32), storfn.DefaultEncryptorCosts())
	r := newUIFRig(t, 1, enc)
	wakeLatency, reap := uif.DefaultCosts().WakeLatency, blockdev.DefaultURingCosts().Reap
	var deferredAt, ranAt sim.Time
	hint := r.ring.OnComp
	r.ring.OnComp = func() {
		// The parked poller wakes, pays the wake latency and starts the
		// sweep whose reap this completion is; defer half-way through it.
		hint()
		r.env.After(wakeLatency+reap/2, func() {
			deferredAt = r.env.Now()
			r.att.Defer(func() { ranAt = r.env.Now() })
		})
	}
	r.run(t, func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // the poller has parked
		// A backend read no attachment is waiting for: a stale CQE.
		p.Await(func(then func()) {
			r.ring.Submit(r.cpu.ThreadOn(12, "test"), blockdev.BioRead, 0, make([]byte, 512), 1<<40, then)
		})
		p.Sleep(sim.Millisecond)
	})
	if r.fw.StaleRingComps != 1 || deferredAt == 0 {
		t.Fatalf("scenario not reached: %d stale completions, deferred at %v", r.fw.StaleRingComps, deferredAt)
	}
	// The rest of the reap (150 ns) plus one poll round (300 ns).
	if got := ranAt.Sub(deferredAt); got != 450*sim.Nanosecond {
		t.Fatalf("deferred work ran %v after it was queued; the per-round loop gave 450ns", got)
	}
}

// TestSpinKeepsUIFPollsAndParkInstant checks the framework's own books: the
// sweeps a spin elides still count in Polls, and the poller parks after the
// same number of idle rounds (the first boundary at or past IdlePark).
func TestSpinKeepsUIFPollsAndParkInstant(t *testing.T) {
	enc, _ := storfn.NewEncryptor(make([]byte, 32), storfn.DefaultEncryptorCosts())
	r := newUIFRig(t, 1, enc)
	var idleBusy sim.Duration
	var polls uint64
	r.run(t, func(p *sim.Proc) {
		encryptedRoundTrips(t, r, p, 5)
		snap := r.cpu.Snapshot()
		before := r.fw.Polls
		p.Sleep(10 * sim.Millisecond)
		idleBusy = r.cpu.Since(snap).ByTag["uif"]
		polls = r.fw.Polls - before
	})
	// 161 more rounds of 300 ns take the idle time from the last completion
	// past the 50 us budget; then the poller sleeps for good.
	if idleBusy != 161*300 || polls != 161 || r.fw.Polls != 1551 || r.fw.Wakes != 5 {
		t.Fatalf("idle busy=%v polls=%d, total polls=%d wakes=%d; the per-round loop gave 48.300us, 161, 1551, 5",
			idleBusy, polls, r.fw.Polls, r.fw.Wakes)
	}
}
