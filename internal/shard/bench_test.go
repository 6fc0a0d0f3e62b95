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
// process spawns they cost, counted between start and stop. Twenty reads
// before start warm the fleet up: they start the shards, grant the
// promotions and touch the event wheel's buckets the reads file into, each
// of which allocates once.
func shardHops(tb testing.TB, promoted bool, n int, start, stop func()) (events, switches, spawns uint64) {
	bench := newBench(2, 2)
	defer bench.env.Close()
	if promoted {
		bench.router.EnablePromotion()
	}
	bases := make([]uint64, 2)
	pages := make([][]uint64, 2)
	for i := range bases {
		base, pg, err := bench.vms[i].Mem.AllocBuffer(4096)
		if err != nil {
			tb.Fatal(err)
		}
		bases[i], pages[i] = base, pg
	}
	read := func(p *sim.Proc, i int) {
		t := i % 2
		req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: bases[t], BufPages: pages[t]}
		if st := vm.SubmitAndWait(p, bench.disks[t], bench.vms[t].VCPU(0), req); !st.OK() {
			tb.Fatalf("io %d failed: %v", i, st)
		}
	}
	done := false
	bench.env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			read(p, i)
		}
		start()
		events, switches, spawns = bench.env.Dispatched(), bench.env.Switches(), bench.env.Spawns()
		for i := 0; i < n; i++ {
			read(p, i)
		}
		stop()
		events, switches, spawns = bench.env.Dispatched()-events, bench.env.Switches()-switches, bench.env.Spawns()-spawns
		done = true
		bench.env.Stop()
	})
	bench.env.RunUntil(sim.Time(1 << 62))
	if !done {
		tb.Fatal("benchmark did not finish")
	}
	return events, switches, spawns
}

// TestShardDispatchAllocBudget pins the heap allocations of a round trip
// through the fleet at 4 on either tier, as core's TestHopSwitchBudget does
// for one router: the driver's vm.Req, the Req's Cond and the cond's waiter
// slot, and the router's request.
func TestShardDispatchAllocBudget(t *testing.T) {
	const n = 500
	for _, tier := range []string{"routed", "promoted"} {
		var ms runtime.MemStats
		var mallocs uint64
		start := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs }
		stop := func() { runtime.ReadMemStats(&ms); mallocs = ms.Mallocs - mallocs }
		shardHops(t, tier == "promoted", n, start, stop)
		if mallocs > 4*n {
			t.Errorf("%s: %d round trips cost %d heap allocations; budget per round trip is 4", tier, n, mallocs)
		}
	}
}
