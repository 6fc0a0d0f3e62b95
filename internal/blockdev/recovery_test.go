package blockdev_test

import (
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// faultBed is bed() with a fault plan injected at the device. The driver's
// recovery ladder is fixed: a 100 ms deadline, three retries backing off from
// 100 µs, a 200 ms reclaim window.
func faultBed(plan *fault.Plan) (*sim.Env, *blockdev.NVMeBlockDev, *sim.Thread) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, device.NewMemStore(512))
	dev.InjectFaults(plan.Injector("device"))
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 3, blockdev.DefaultCosts())
	return env, bdev, cpu.ThreadOn(0, "test")
}

// A dropped completion must trigger the deadline, and the bounded retry
// must succeed once the fault budget is exhausted.
func TestTimeoutRetrySucceeds(t *testing.T) {
	env, bdev, th := faultBed(fault.NewPlan(1).WithDrops(1, 2))
	runP(t, env, func(p *sim.Proc) {
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)})
		if !st.OK() {
			t.Fatalf("write after retries: %v", st)
		}
	})
	if bdev.Timeouts != 2 || bdev.Retries != 2 {
		t.Fatalf("timeouts=%d retries=%d, want 2/2", bdev.Timeouts, bdev.Retries)
	}
	if bdev.Aborts != 0 || bdev.Completed != 1 {
		t.Fatalf("aborts=%d completed=%d", bdev.Aborts, bdev.Completed)
	}
}

// With every completion dropped, the bio must fail with AbortRequested
// after MaxRetries resubmissions — never hang.
func TestTimeoutExhaustsRetries(t *testing.T) {
	env, bdev, th := faultBed(fault.NewPlan(1).WithDrops(1, 0))
	runP(t, env, func(p *sim.Proc) {
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)})
		if st != nvme.SCAbortRequested {
			t.Fatalf("status %v, want AbortRequested", st)
		}
	})
	if bdev.Timeouts != 4 || bdev.Retries != 3 || bdev.Aborts != 1 {
		t.Fatalf("timeouts=%d retries=%d aborts=%d, want 4/3/1", bdev.Timeouts, bdev.Retries, bdev.Aborts)
	}
}

// A stuck completion arrives after the deadline: the retry completes the
// bio, and the late original is absorbed by the CID quarantine rather than
// being misattributed.
func TestStuckCompletionCountedStale(t *testing.T) {
	// The original is held past its deadline but surfaces well inside the
	// reclaim window, while its CID is still quarantined.
	env, bdev, th := faultBed(fault.NewPlan(1).WithStuck(1, 1, 150*sim.Millisecond))
	runP(t, env, func(p *sim.Proc) {
		st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 8, Data: make([]byte, 4096)})
		if !st.OK() {
			t.Fatalf("read: %v", st)
		}
		// Let the stuck original surface.
		p.Sleep(100 * sim.Millisecond)
	})
	if bdev.Timeouts != 1 || bdev.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want 1/1", bdev.Timeouts, bdev.Retries)
	}
	if bdev.Stale != 1 || bdev.Reclaimed != 0 {
		t.Fatalf("stale=%d reclaimed=%d, want 1/0", bdev.Stale, bdev.Reclaimed)
	}
}

// A completion surfacing after its CID was quarantined AND reclaimed —
// with the tag already reissued to a new command — must be counted
// StaleReclaimed and dropped, never delivered to the tag's new occupant.
// The generation stamp carried in the command (and echoed in the
// completion) is what disambiguates the two uses of the tag.
func TestReclaimedTagNotMisattributed(t *testing.T) {
	// The write's completion is held for 400 ms: its first attempt times out
	// at 100 ms, its CID is quarantined and the retry completes the write on
	// another CID; the quarantined tag is reclaimed at 300 ms, long before
	// the held completion surfaces.
	const held = 400 * sim.Millisecond
	env, bdev, th := faultBed(fault.NewPlan(1).WithStuck(1, 1, held))
	runP(t, env, func(p *sim.Proc) {
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 8, Data: make([]byte, 4096)}); !st.OK() {
			t.Fatalf("stuck write: %v", st)
		}
		// Reissue the reclaimed tag, timed so the read is in flight when the
		// held completion for the tag's previous occupant finally surfaces.
		p.Sleep(held - 50*sim.Microsecond - sim.Duration(p.Now()))
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 8, Data: make([]byte, 4096)}); !st.OK() {
			t.Fatalf("read on reused tag: %v", st)
		}
		// Let any residual completions surface.
		p.Sleep(5 * sim.Millisecond)
	})
	if bdev.Timeouts != 1 || bdev.Retries != 1 || bdev.Reclaimed != 1 {
		t.Fatalf("timeouts=%d retries=%d reclaimed=%d, want 1/1/1", bdev.Timeouts, bdev.Retries, bdev.Reclaimed)
	}
	if bdev.StaleReclaimed != 1 {
		t.Fatalf("stale_reclaimed=%d, want 1: the held completion was not absorbed", bdev.StaleReclaimed)
	}
	if bdev.Stale != 0 {
		t.Fatalf("stale=%d: the held completion matched a live quarantine entry", bdev.Stale)
	}
	if bdev.Completed != 2 {
		t.Fatalf("completed=%d, want exactly the retried write and the reissued read", bdev.Completed)
	}
}

// Media errors are final statuses, not lost completions: they propagate to
// the issuer without consuming the retry budget.
func TestMediaErrorPropagates(t *testing.T) {
	env, bdev, th := faultBed(fault.NewPlan(1).WithMediaErrors(1))
	runP(t, env, func(p *sim.Proc) {
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 0, Data: make([]byte, 4096)}); st != nvme.SCUnrecoveredRead {
			t.Fatalf("read: %v", st)
		}
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: make([]byte, 4096)}); st != nvme.SCWriteFault {
			t.Fatalf("write: %v", st)
		}
	})
	if bdev.Timeouts != 0 || bdev.Retries != 0 {
		t.Fatalf("media errors consumed recovery: timeouts=%d retries=%d", bdev.Timeouts, bdev.Retries)
	}
}
