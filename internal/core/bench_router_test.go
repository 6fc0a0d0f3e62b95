package core_test

import (
	"runtime"
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
		b.ReportAllocs()
		events, switches, spawns := routedHops(b, b.N, b.ResetTimer, b.StopTimer)
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
		b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
		b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
	})
}

// routedHops drives n QD1 reads through the router fast path and returns
// the scheduler events, run-token hand-offs and process spawns they cost,
// counted between start and stop. The driver is a continuation, like the
// router, the device and the guest's interrupt handler: one vm.Req,
// resubmitted from a callback event at each completion — the event that woke
// the submitting process when the driver was one. Twenty reads before start
// warm the rig up: they touch the event wheel's buckets the hop pattern files
// into, each of which allocates once, and the request's driver state.
func routedHops(tb testing.TB, n int, start, stop func()) (events, switches, spawns uint64) {
	r := newRig(1)
	v, _, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
	base, pages, err := v.Mem.AllocBuffer(4096)
	if err != nil {
		tb.Fatal(err)
	}
	const warm = 20
	req := &vm.Req{Op: vm.OpRead, Blocks: 8, Buf: base, BufPages: pages}
	done, i := false, 0
	var next func()
	next = func() {
		if i > 0 && !req.Status.OK() {
			tb.Errorf("io %d failed: %v", i, req.Status)
			r.env.Stop()
			return
		}
		switch i {
		case warm:
			start()
			events, switches, spawns = r.env.Dispatched(), r.env.Switches(), r.env.Spawns()
		case warm + n:
			stop()
			events, switches, spawns = r.env.Dispatched()-events, r.env.Switches()-switches, r.env.Spawns()-spawns
			done = true
			r.env.Stop()
			return
		}
		i++
		req.Reset()
		req.LBA = uint64(max(i-warm, 0)%1024) * 8
		disk.SubmitFunc(v.VCPU(0), req, submitted)
	}
	req.OnDone = func(*vm.Req) { r.env.After(0, next) }
	r.env.After(0, next)
	r.env.RunUntil(sim.Time(1 << 62))
	if !done {
		tb.Fatal("hops did not finish")
	}
	return events, switches, spawns
}

func submitted() {}

// TestHopSwitchBudget pins what a routed QD1 hop costs the scheduler: 21
// events, none of which hands the run token to a process (the driver, the
// router worker, the device and the guest's interrupt handler are all
// continuations), and no spawn. The counts are exact, so a change that puts a
// process back on the command path fails here whatever the host's timing
// noise. It also pins the heap allocations a warm hop costs: none, the
// router's request record being its queue's, recycled. The race detector's
// instrumentation allocates, so under -race only the scheduler budget is
// checked.
func TestHopSwitchBudget(t *testing.T) {
	const n = 500
	var ms runtime.MemStats
	var mallocs uint64
	start := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs }
	stop := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs - mallocs }
	events, switches, spawns := routedHops(t, n, start, stop)
	if events != 21*n || switches != 0 || spawns != 0 {
		t.Errorf("%d hops cost %d events, %d switches, %d spawns; budget per hop is 21 / 0 / 0",
			n, events, switches, spawns)
	}
	if !raceDetector && mallocs != 0 {
		t.Errorf("%d hops cost %d heap allocations; budget per hop is 0", n, mallocs)
	}
}
