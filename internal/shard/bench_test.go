package shard_test

import (
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
			bench := newBench(2, 2)
			defer bench.env.Close()
			if tier == "promoted" {
				bench.router.EnablePromotion()
			}
			bases := make([]uint64, 2)
			pages := make([][]uint64, 2)
			for i := range bases {
				base, pg, err := bench.vms[i].Mem.AllocBuffer(4096)
				if err != nil {
					b.Fatal(err)
				}
				bases[i], pages[i] = base, pg
			}
			done := false
			var events, switches, spawns uint64
			bench.env.Go("bench", func(p *sim.Proc) {
				b.ResetTimer()
				events, switches, spawns = bench.env.Dispatched(), bench.env.Switches(), bench.env.Spawns()
				for i := 0; i < b.N; i++ {
					t := i % 2
					req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8,
						Buf: bases[t], BufPages: pages[t]}
					if st := vm.SubmitAndWait(p, bench.disks[t], bench.vms[t].VCPU(0), req); !st.OK() {
						b.Fatalf("io %d failed: %v", i, st)
					}
				}
				b.StopTimer()
				events, switches, spawns = bench.env.Dispatched()-events, bench.env.Switches()-switches, bench.env.Spawns()-spawns
				done = true
				bench.env.Stop()
			})
			bench.env.RunUntil(sim.Time(1 << 62))
			if !done {
				b.Fatal("benchmark did not finish")
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
			b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
		})
	}
}
