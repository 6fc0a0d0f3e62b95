package core_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// BenchmarkRouterHop measures host wall-clock per guest I/O driven through
// the full router fast path (VSQ poll, classification, HQ dispatch, HCQ
// completion); it tracks the simulator's own overhead. events/op
// is the scheduler events one I/O costs — deterministic, unlike ns/op — and
// is where idle poll rounds show: a QD1 hop leaves the worker polling across
// the whole device latency. switches/op are the events among them that hand
// the run token to another process (the expensive kind), spawns/op the
// processes started per I/O.
func BenchmarkRouterHop(b *testing.B) {
	b.Run("compiled", func(b *testing.B) {
		events, switches, spawns := routedHops(b, b.N, b.ResetTimer, b.StopTimer)
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
		b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
		b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
	})
}

// routedHops drives n QD1 reads through the router fast path and returns
// the scheduler events, run-token hand-offs and process spawns they cost,
// counted between start and stop.
func routedHops(tb testing.TB, n int, start, stop func()) (events, switches, spawns uint64) {
	r := newRig(1)
	v, _, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
	base, pages, err := v.Mem.AllocBuffer(4096)
	if err != nil {
		tb.Fatal(err)
	}
	done := false
	r.env.Go("bench", func(p *sim.Proc) {
		start()
		events, switches, spawns = r.env.Dispatched(), r.env.Switches(), r.env.Spawns()
		for i := 0; i < n; i++ {
			req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); !st.OK() {
				tb.Fatalf("io %d failed: %v", i, st)
			}
		}
		stop()
		events, switches, spawns = r.env.Dispatched()-events, r.env.Switches()-switches, r.env.Spawns()-spawns
		done = true
		r.env.Stop()
	})
	r.env.RunUntil(sim.Time(1 << 62))
	if !done {
		tb.Fatal("hops did not finish")
	}
	return events, switches, spawns
}

// TestHopSwitchBudget pins what a routed QD1 hop costs the scheduler: 21
// events, of which 2 hand the run token to another process (the submitter's
// wake and the router worker's; the device and the guest's interrupt
// handler are continuations), and no spawn. The counts are exact, so a
// change that puts a process back on the command path fails here whatever
// the host's timing noise.
func TestHopSwitchBudget(t *testing.T) {
	const n = 500
	nop := func() {}
	events, switches, spawns := routedHops(t, n, nop, nop)
	if events > 21*n || switches > 2*n || spawns > 0 {
		t.Errorf("%d hops cost %d events, %d switches, %d spawns; budget per hop is 21 / 2 / 0",
			n, events, switches, spawns)
	}
}
