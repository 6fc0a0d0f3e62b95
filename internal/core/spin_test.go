package core_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// These tests pin the worker's time-driven gather conditions — SLO window
// rolls, hop deadlines — to figures recorded with one scheduled Exec per poll
// round. The worker now spins across the rounds that cannot find anything,
// and each of these conditions must still be met on the poll-grid boundary
// the per-round loop met it on (timed_test.go checks the bound itself). A
// change to the cost model legitimately moves the pinned figures.

// TestSpinRollsQoSWindowsOneAtATime runs QD1 reads whose ~85 us latency
// spans four 20 us SLO windows and misses a 50 us target: per I/O the
// arbiter sees one missed window (shed the best-effort tenant) and then
// clean ones (restore it after two). Tick evaluates the controller once per
// call, so a worker that skipped its idle rounds across several window ends
// would roll them in one Tick, count one clean run and never restore.
func TestSpinRollsQoSWindowsOneAtATime(t *testing.T) {
	r := newRig(1)
	arb := r.router.EnableQoS(qos.Config{Window: 20 * sim.Microsecond, RecoverWindows: 2})
	parts := device.Carve(r.dev, 1, 2)
	v, vc, disk := r.addVM(1, parts[0])
	vc.SetQoS(qos.TenantConfig{SLOTargetP99: 50 * sim.Microsecond})
	_, be, _ := r.addVM(2, parts[1])
	be.SetQoS(qos.TenantConfig{BestEffort: true})

	var end sim.Time
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 512)
		for i := 0; i < 8; i++ {
			if st := doIO(p, v, disk, vm.OpRead, uint64(i), buf); !st.OK() {
				t.Fatalf("read %d: %v", i, st)
			}
		}
		end = p.Now()
	})
	slo := arb.Snapshot(end)[0]
	if end != 698000 || arb.Sheds != 7 || arb.Restores != 7 || slo.SLOMet != 27 || slo.SLOMissed != 7 {
		t.Fatalf("end=%d sheds=%d restores=%d met=%d missed=%d; the per-round loop gave end=698000 sheds=7 restores=7 met=27 missed=7",
			end, arb.Sheds, arb.Restores, slo.SLOMet, slo.SLOMissed)
	}
}

// TestSpinKeepsDeadlineInstant drops one fast-path completion. Nothing is
// scheduled while the worker polls on with the hop in flight, so only the
// deadline itself can stop the spin: the abort must reach the guest at the
// instant the per-round loop delivered it. A QD1 stream then keeps the worker
// polling across the quarantined tag's reclaim (silent, so only counted).
func TestSpinKeepsDeadlineInstant(t *testing.T) {
	r := newRig(1)
	r.router.FastPathDeadline = 300 * sim.Microsecond
	r.router.HTagReclaim = 700 * sim.Microsecond
	r.dev.InjectFaults(fault.NewPlan(1).WithDrops(1, 1).Injector("device"))
	v, _, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))

	var aborted, end sim.Time
	r.run(t, func(p *sim.Proc) {
		buf := make([]byte, 512)
		if st := doIO(p, v, disk, vm.OpRead, 0, buf); st != nvme.SCAbortRequested {
			t.Fatalf("dropped read completed with %v, want an abort at the deadline", st)
		}
		aborted = p.Now()
		for i := 0; i < 12; i++ {
			if st := doIO(p, v, disk, vm.OpRead, uint64(i), buf); !st.OK() {
				t.Fatalf("read %d: %v", i, st)
			}
		}
		end = p.Now()
	})
	if aborted != 305250 || end != 1343250 || r.router.HQTimeouts != 1 || r.router.HTagsReclaimed != 1 {
		t.Fatalf("abort seen at %d, end=%d, timeouts=%d reclaimed=%d; the per-round loop gave 305250, 1343250, 1, 1",
			aborted, end, r.router.HQTimeouts, r.router.HTagsReclaimed)
	}
}
