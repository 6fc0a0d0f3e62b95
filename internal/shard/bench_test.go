package shard_test

import (
	"runtime"
	"testing"

	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// BenchmarkShardDispatch measures one 4 KiB read round trip through the
// sharded fleet, routed (classifier executes every command) against
// promoted (direct SQ→HSQ mapping, classifier elided) — the host-side cost
// the promotion tier removes. events/op, switches/op and spawns/op are the
// scheduler events, run-token hand-offs and process spawns per round trip
// (see BenchmarkRouterHop).
func BenchmarkShardDispatch(b *testing.B) {
	for _, tier := range []string{"routed", "promoted"} {
		b.Run(tier, func(b *testing.B) {
			b.ReportAllocs()
			events, switches, spawns := shardHops(b, tier == "promoted", b.N, b.ResetTimer, b.StopTimer)
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
			b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
		})
	}
}

// shardHops drives n 4 KiB reads, alternating between two tenants on a
// two-shard fleet, and returns the scheduler events, run-token hand-offs and
// process spawns they cost, counted between start and stop. The driver is a
// continuation with one vm.Req per tenant, resubmitted from a callback event
// at each completion (see core's routedHops). Twenty reads before start warm
// the fleet up: they grant the promotions, touch the event wheel's buckets
// the reads file into, each of which allocates once, and the requests'
// driver state.
func shardHops(tb testing.TB, promoted bool, n int, start, stop func()) (events, switches, spawns uint64) {
	bench := newBench(2, 2)
	defer bench.env.Close()
	if promoted {
		bench.router.EnablePromotion()
	}
	const warm = 20
	reqs := make([]*vm.Req, 2)
	for t := range reqs {
		base, pg, err := bench.vms[t].Mem.AllocBuffer(4096)
		if err != nil {
			tb.Fatal(err)
		}
		reqs[t] = &vm.Req{Op: vm.OpRead, Blocks: 8, Buf: base, BufPages: pg}
	}
	done, i := false, 0
	var next func()
	next = func() {
		if i > 0 && !reqs[(i-1)%2].Status.OK() {
			tb.Errorf("io %d failed: %v", i, reqs[(i-1)%2].Status)
			bench.env.Stop()
			return
		}
		switch i {
		case warm:
			start()
			events, switches, spawns = bench.env.Dispatched(), bench.env.Switches(), bench.env.Spawns()
		case warm + n:
			stop()
			events, switches, spawns = bench.env.Dispatched()-events, bench.env.Switches()-switches, bench.env.Spawns()-spawns
			done = true
			bench.env.Stop()
			return
		}
		t := i % 2
		req := reqs[t]
		req.Reset()
		req.LBA = uint64(i%1024) * 8
		i++
		bench.disks[t].SubmitFunc(bench.vms[t].VCPU(0), req, submitted)
	}
	for _, req := range reqs {
		req.OnDone = func(*vm.Req) { bench.env.After(0, next) }
	}
	bench.env.After(0, next)
	bench.env.RunUntil(sim.Time(1 << 62))
	if !done {
		tb.Fatal("benchmark did not finish")
	}
	return events, switches, spawns
}

func submitted() {}

// TestShardDispatchAllocBudget pins the heap allocations of a warm round
// trip through the fleet at none on either tier — the router recycles its
// request records — as core's TestHopSwitchBudget does for one router, and
// the scheduler's share at no hand-off and no spawn. The race detector's instrumentation allocates, so
// under -race only the scheduler budget is checked.
func TestShardDispatchAllocBudget(t *testing.T) {
	const n = 500
	for _, tier := range []string{"routed", "promoted"} {
		var ms runtime.MemStats
		var mallocs uint64
		start := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs }
		stop := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs - mallocs }
		_, switches, spawns := shardHops(t, tier == "promoted", n, start, stop)
		if switches != 0 || spawns != 0 {
			t.Errorf("%s: %d round trips cost %d hand-offs and %d spawns; want none", tier, n, switches, spawns)
		}
		if !raceDetector && mallocs != 0 {
			t.Errorf("%s: %d round trips cost %d heap allocations; budget per round trip is 0", tier, n, mallocs)
		}
	}
}
