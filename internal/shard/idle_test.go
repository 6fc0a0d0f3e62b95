package shard_test

import (
	"fmt"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// idleRun drives n QD1 reads from tenant 0 of a one-shard fleet whose other
// tenants have nothing pending, on a device with the given read latency, next
// to a neighbour process that wakes every 700 ns and is none of the shard's
// business. In a fleet that neighbour is the other shards' traffic: its wakes
// bound the shard's idle spins, so the shard reaches a poll boundary on either
// side of each one for as long as the read is in flight. It returns the
// scheduler events and run-token hand-offs the reads took; a benchmark's
// timer covers the same reads.
func idleRun(tb testing.TB, tenants, n int, readBase sim.Duration) (events, switches uint64) {
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb, p.ReadBase = 0, 0, readBase
	b := newBenchOn(1, tenants, p)
	defer b.env.Close()
	base, pages, err := b.vms[0].Mem.AllocBuffer(4096)
	if err != nil {
		tb.Fatal(err)
	}
	read := func(p *sim.Proc, i int) bool {
		req := &vm.Req{Op: vm.OpRead, LBA: uint64(i%1024) * 8, Blocks: 8, Buf: base, BufPages: pages}
		return vm.SubmitAndWait(p, b.disks[0], b.vms[0].VCPU(0), req).OK()
	}
	b.env.Go("neighbour", func(p *sim.Proc) {
		for {
			p.Sleep(700)
		}
	})
	ok := false
	b.env.Go("guest", func(p *sim.Proc) {
		defer b.env.Stop()
		if !read(p, 0) { // warm: worker goroutines exist, first SLO windows open
			return
		}
		tm, _ := tb.(*testing.B)
		if tm != nil {
			tm.ResetTimer()
		}
		events, switches = b.env.Dispatched(), b.env.Switches()
		for i := 1; i <= n; i++ {
			if !read(p, i) {
				return
			}
		}
		events, switches = b.env.Dispatched()-events, b.env.Switches()-switches
		if tm != nil {
			tm.StopTimer()
		}
		ok = true
	})
	b.env.RunUntil(sim.Time(120 * sim.Second))
	if !ok {
		tb.Fatal("reads did not complete")
	}
	return events, switches
}

// TestNoHandOffPerIdleRound: an idle poll round is a scheduler event — that
// cannot change without re-ordering same-instant ties, and the event counts
// below were recorded on the commit before Spin took the poller's readiness
// check — but it is not a reason to resume the worker: quadrupling the time a
// read is in flight quadruples the boundaries the shard reaches and leaves the
// hand-offs where they were.
func TestNoHandOffPerIdleRound(t *testing.T) {
	const reads = 50
	short, shortSw := idleRun(t, 16, reads, 78*sim.Microsecond)
	long, longSw := idleRun(t, 16, reads, 312*sim.Microsecond)
	if short != 8660 || long != 28468 {
		t.Errorf("%d and %d events for %d reads at 78 and 312 us; resuming the worker at every boundary dispatched 8660 and 28468", short, long, reads)
	}
	// That spin took 2860 and 8761 hand-offs: two per boundary reached.
	if longSw > shortSw+shortSw/10 {
		t.Errorf("%d hand-offs at 312 us against %d at 78 us: hand-offs grow with idle rounds", longSw, shortSw)
	}
}

// BenchmarkShardIdleTenants is what a tenant with nothing pending costs its
// shard's neighbours on the host: one QD1 reader beside 0, 15, 63 and 255 idle
// tenants (see idleRun). events/op falls as the round — 250 ns of virtual time
// per tenant polled — outgrows the neighbour's 700 ns period and fewer
// boundaries fit between its wakes. The worker visits only tenants with
// something in their queues, so ns/op per event should not grow with the
// idle ones.
func BenchmarkShardIdleTenants(b *testing.B) {
	for _, idle := range []int{0, 15, 63, 255} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			b.ReportAllocs()
			events, switches := idleRun(b, 1+idle, b.N, 78*sim.Microsecond)
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
		})
	}
}
