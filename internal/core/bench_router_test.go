package core_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// BenchmarkRouterHop measures host wall-clock per guest I/O driven through
// the full router fast path (VSQ poll, classification, HQ dispatch, HCQ
// completion) with the classifier on each execution tier. Virtual-time
// behaviour is identical across tiers; this benchmark tracks the
// simulator's own overhead, which the compiled tier exists to cut. events/op
// is the scheduler events one I/O costs — deterministic, unlike ns/op — and
// is where idle poll rounds show: a QD1 hop leaves the worker polling across
// the whole device latency. switches/op are the events among them that hand
// the run token to another goroutine (the expensive kind), spawns/op the
// processes started per I/O.
func BenchmarkRouterHop(b *testing.B) {
	for _, tier := range []string{"compiled", "interpreter"} {
		b.Run(tier, func(b *testing.B) {
			r := newRig(1)
			v, vc, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
			vc.SetInterpreted(tier == "interpreter")
			base, pages, err := v.Mem.AllocBuffer(4096)
			if err != nil {
				b.Fatal(err)
			}
			done := false
			var events, switches, spawns uint64
			r.env.Go("bench", func(p *sim.Proc) {
				b.ResetTimer()
				events, switches, spawns = r.env.Dispatched(), r.env.Switches(), r.env.Spawns()
				for i := 0; i < b.N; i++ {
					req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: base, BufPages: pages}
					if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); !st.OK() {
						b.Fatalf("io %d failed: %v", i, st)
					}
				}
				b.StopTimer()
				events, switches, spawns = r.env.Dispatched()-events, r.env.Switches()-switches, r.env.Spawns()-spawns
				done = true
				r.env.Stop()
			})
			r.env.RunUntil(sim.Time(1 << 62))
			if !done {
				b.Fatal("benchmark did not finish")
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
			b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
		})
	}
}
