package shard_test

import (
	"bytes"
	"strings"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/shard"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// bench is a sharded test bed: one device, a router whose workers are the
// shards, VMs with NVMetro disks over whole per-VM namespaces (the
// promotable layout — a whole namespace keeps the default pure fast-path
// classifier).
type bench struct {
	env    *sim.Env
	cpu    *sim.CPU
	dev    *device.Device
	router *core.Router
	vms    []*vm.VM
	vcs    []*core.Controller
	disks  []*vm.NVMeDisk
}

func newBench(shards, vms int) *bench {
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	return newBenchOn(shards, vms, p)
}

func newBenchOn(shards, vms int, p device.Params) *bench {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4+shards)
	store := device.NewMemStore(512)
	dev := device.New(env, p, store)
	var threads []*sim.Thread
	for i := 0; i < shards; i++ {
		threads = append(threads, cpu.ThreadOn(4+i, "shard"))
	}
	b := &bench{env: env, cpu: cpu, dev: dev,
		router: core.NewRouter(env, core.DefaultRouterCosts(), threads)}
	for i := 0; i < vms; i++ {
		nsid := uint32(1)
		if i > 0 {
			nsid = dev.NextNSID()
			dev.AddNamespace(nsid, 1<<18, device.NewMemStore(512))
		}
		v := vm.New(env, i+1, cpu, i%4, 1, 32<<20, vm.DefaultVirtCosts())
		vc := b.router.Attach(v, device.WholeNamespace(dev, nsid))
		disk := vm.NewNVMeDisk(v, vc, 64, vm.DefaultDriverCosts())
		b.vms = append(b.vms, v)
		b.vcs = append(b.vcs, vc)
		b.disks = append(b.disks, disk)
	}
	return b
}

func (b *bench) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	b.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; b.env.Stop() })
	b.env.RunUntil(sim.Time(120 * sim.Second))
	if !ok {
		t.Fatal("test did not finish in simulated time")
	}
}

func (b *bench) io(p *sim.Proc, i int, op vm.Op, lba uint64, n int) nvme.Status {
	v := b.vms[i]
	base, pages, err := v.Mem.AllocBuffer(uint32(n))
	if err != nil {
		panic(err)
	}
	if op == vm.OpWrite {
		v.Mem.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, n), base)
	}
	r := &vm.Req{Op: op, LBA: lba, Blocks: uint32(n) / 512, Buf: base, BufPages: pages}
	return vm.SubmitAndWait(p, b.disks[i], v.VCPU(0), r)
}

// TestPlacementBalanced: least-loaded placement spreads tenants evenly, and
// Router.Attach reproduces, tenant by tenant, the placement sequence of the
// rule the fleet used to apply on top of it (a per-shard tenant count;
// fewest tenants, lowest shard ID on ties) for 1…64 tenants on 1…8 workers
// — which, while no tenant can detach, is also round-robin.
func TestPlacementBalanced(t *testing.T) {
	b := newBench(4, 10)
	defer b.env.Close()
	min, max := 10, 0
	for _, si := range b.router.ShardInfos() {
		if n := len(si.VMs); n < min {
			min = n
		}
		if n := len(si.VMs); n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced placement: min=%d max=%d", min, max)
	}
	if b.router.Workers() != 4 {
		t.Fatalf("Workers = %d", b.router.Workers())
	}

	part := device.WholeNamespace(b.dev, 1)
	vms := make([]*vm.VM, 64)
	for i := range vms {
		vms[i] = vm.New(b.env, 100+i, b.cpu, 0, 1, 1<<20, vm.DefaultVirtCosts())
	}
	for workers := 1; workers <= 8; workers++ {
		threads := make([]*sim.Thread, workers)
		for i := range threads {
			threads[i] = b.cpu.ThreadOn(i%b.cpu.NumCores(), "shard")
		}
		r := core.NewRouter(b.env, core.DefaultRouterCosts(), threads)
		counts := make([]int, workers)
		for i, v := range vms {
			want := 0
			for j, n := range counts {
				if n < counts[want] {
					want = j
				}
			}
			counts[want]++
			if got := r.Attach(v, part).WorkerID(); got != want || got != i%workers {
				t.Fatalf("%d workers, tenant %d: placed on worker %d, least-loaded rule says %d, round-robin %d",
					workers, i+1, got, want, i%workers)
			}
		}
	}
}

// TestPromotionElidesClassification: with promotion on, tenants running
// the default (statically constant) classifier collapse to the direct
// SQ→HSQ mapping — promoted ops count up while classifications stay flat
// — and the same workload finishes strictly faster than when routed.
func TestPromotionElidesClassification(t *testing.T) {
	const ops = 64
	elapsed := func(promote bool) (sim.Duration, *core.Router) {
		b := newBench(2, 2)
		defer b.env.Close()
		if promote {
			b.router.EnablePromotion()
		}
		var dt sim.Duration
		b.run(t, func(p *sim.Proc) {
			t0 := b.env.Now()
			for i := 0; i < ops; i++ {
				if st := b.io(p, i%2, vm.OpRead, uint64(i), 4096); !st.OK() {
					t.Fatalf("read %d: %v", i, st)
				}
			}
			dt = b.env.Now().Sub(t0)
		})
		return dt, b.router
	}

	routedT, routed := elapsed(false)
	promotedT, promoted := elapsed(true)

	if routed.PromotedOps != 0 || routed.Promotions != 0 {
		t.Fatalf("promotion fired while disabled: %+v", routed.Promotions)
	}
	if promoted.Promotions != 2 {
		t.Fatalf("Promotions = %d, want 2 (one per tenant)", promoted.Promotions)
	}
	if promoted.PromotedOps != ops {
		t.Fatalf("PromotedOps = %d, want %d", promoted.PromotedOps, ops)
	}
	if promoted.Classifications != 0 {
		t.Fatalf("Classifications = %d under full promotion, want 0", promoted.Classifications)
	}
	if routed.Classifications != ops {
		t.Fatalf("routed Classifications = %d, want %d", routed.Classifications, ops)
	}
	if promotedT >= routedT {
		t.Fatalf("promoted run not faster: %v vs %v", promotedT, routedT)
	}
}

// TestHotSwapDemotionFence: swapping a classifier demotes the tenant
// before the new classifier can see a single command — every command
// submitted after the swap is classified, none rides the stale direct
// mapping — and restoring a provably constant classifier re-promotes.
func TestHotSwapDemotionFence(t *testing.T) {
	const pre, post = 50, 50
	b := newBench(2, 1)
	defer b.env.Close()
	b.router.EnablePromotion()
	r := b.router
	vc := b.vcs[0]

	classified := 0
	b.run(t, func(p *sim.Proc) {
		for i := 0; i < pre; i++ {
			if st := b.io(p, 0, vm.OpRead, uint64(i), 512); !st.OK() {
				t.Fatalf("pre read %d: %v", i, st)
			}
		}
		if !vc.Promoted() {
			t.Fatal("tenant not promoted after warm traffic")
		}
		opsAtSwap := r.PromotedOps

		// Hot-swap: a native classifier is opaque to static analysis, so
		// installing it must demote synchronously.
		vc.SetNativeClassifier(func(ctx []byte) uint64 {
			classified++
			return core.ActSendHQ | core.ActWillCompleteHQ
		})
		if vc.Promoted() {
			t.Fatal("still promoted after hot-swap")
		}
		if r.Demotions != 1 {
			t.Fatalf("Demotions = %d, want 1", r.Demotions)
		}
		for i := 0; i < post; i++ {
			if st := b.io(p, 0, vm.OpRead, uint64(i), 512); !st.OK() {
				t.Fatalf("post read %d: %v", i, st)
			}
		}
		if classified != post {
			t.Fatalf("new classifier saw %d commands, want %d (a command bypassed the fence)",
				classified, post)
		}
		if r.PromotedOps != opsAtSwap {
			t.Fatalf("PromotedOps advanced across the fence: %d -> %d", opsAtSwap, r.PromotedOps)
		}

		// Restore the eBPF classifier: the stored static verdict still
		// holds, so the tenant re-promotes (through the control inbox).
		vc.SetNativeClassifier(nil)
		for i := 0; i < 4; i++ {
			if st := b.io(p, 0, vm.OpRead, uint64(i), 512); !st.OK() {
				t.Fatalf("restore read %d: %v", i, st)
			}
		}
		if !vc.Promoted() || r.Promotions != 2 {
			t.Fatalf("re-promotion failed: promoted=%v promotions=%d", vc.Promoted(), r.Promotions)
		}
	})
}

// TestAttachUIFDemotes: attaching a notify consumer fences the direct
// mapping like a hot-swap; detaching restores it.
func TestAttachUIFDemotes(t *testing.T) {
	b := newBench(1, 1)
	defer b.env.Close()
	b.router.EnablePromotion()
	vc := b.vcs[0]
	b.run(t, func(p *sim.Proc) {
		if st := b.io(p, 0, vm.OpRead, 0, 512); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !vc.Promoted() {
			t.Fatal("not promoted")
		}
		vc.AttachUIF(64)
		if vc.Promoted() {
			t.Fatal("promoted with a UIF attached")
		}
		vc.DetachUIF()
		for i := 0; i < 4; i++ {
			if st := b.io(p, 0, vm.OpRead, 0, 512); !st.OK() {
				t.Fatalf("read: %v", st)
			}
		}
		if !vc.Promoted() {
			t.Fatal("not re-promoted after DetachUIF")
		}
	})
}

// TestQoSMergePerShard: per-shard arbiters hold disjoint tenant sets and
// the fleet-wide snapshot/counter merge covers every tenant exactly once,
// with admission counts matching the per-tenant workload.
func TestQoSMergePerShard(t *testing.T) {
	const vms, perVM = 6, 10
	b := newBench(3, vms)
	defer b.env.Close()
	b.router.EnableQoS(qos.Config{})
	b.run(t, func(p *sim.Proc) {
		for i := 0; i < vms; i++ {
			for j := 0; j < perVM; j++ {
				if st := b.io(p, i, vm.OpRead, uint64(j), 512); !st.OK() {
					t.Fatalf("vm%d read %d: %v", i, j, st)
				}
			}
		}
	})

	arbs := b.router.QoSArbiters()
	if len(arbs) != 3 {
		t.Fatalf("QoSArbiters = %d, want 3", len(arbs))
	}
	perShard := 0
	for _, a := range arbs {
		perShard += len(a.Snapshot(b.env.Now()))
	}
	if perShard != vms {
		t.Fatalf("per-shard tenants sum to %d, want %d", perShard, vms)
	}

	snap := b.router.QoSSnapshot(b.env.Now())
	seen := map[string]bool{}
	for _, ts := range snap {
		if seen[ts.Name] {
			t.Fatalf("tenant %s appears twice in merged snapshot", ts.Name)
		}
		seen[ts.Name] = true
		if ts.Admitted != perVM {
			t.Fatalf("tenant %s admitted %d, want %d", ts.Name, ts.Admitted, perVM)
		}
	}
	if len(snap) != vms {
		t.Fatalf("merged snapshot has %d tenants, want %d", len(snap), vms)
	}

	var cs metrics.CounterSet
	b.router.CollectQoS(&cs)
	total := uint64(0)
	for i := 1; i <= vms; i++ {
		total += cs.Get("qos_vm" + string(rune('0'+i)) + "_admitted")
	}
	if total != vms*perVM {
		t.Fatalf("merged admitted counters sum to %d, want %d", total, vms*perVM)
	}
}

// TestDumpFormat: the control-plane dump names every shard and tenant.
func TestDumpFormat(t *testing.T) {
	b := newBench(2, 3)
	defer b.env.Close()
	b.router.EnablePromotion()
	b.run(t, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if st := b.io(p, i, vm.OpRead, 0, 512); !st.OK() {
				t.Fatalf("read: %v", st)
			}
		}
	})
	d := shard.Of(b.router).Dump()
	for _, want := range []string{"fleet: shards=2", "shard 0:", "shard 1:", "vm1", "vm2", "vm3", "promoted"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}
