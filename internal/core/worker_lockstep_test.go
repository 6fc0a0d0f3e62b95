package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// newRefRouter is NewRouter with each worker's loop as the process it was
// before the worker became a reactor, kept as the oracle for
// TestWorkerLockstepWithProcessReference. Everything but the loop — gather,
// look, apply, the three paths — is the worker's own.
func newRefRouter(env *sim.Env, costs RouterCosts, threads []*sim.Thread) *Router {
	r := &Router{
		env:              env,
		costs:            costs,
		FastPathDeadline: 100 * sim.Millisecond,
		HTagReclaim:      200 * sim.Millisecond,
	}
	for i, th := range threads {
		w := newWorker(r, i, th)
		r.workers = append(r.workers, w)
		env.Go(fmt.Sprintf("router-w%d", i), w.refRun)
	}
	return r
}

// refRun is the worker main loop as a process: a two-phase poll (gather
// work, charge CPU, apply effects) with adaptive parking when every attached
// VM is idle.
func (w *worker) refRun(p *sim.Proc) {
	var effects []effect
	for {
		work, idle := w.gather(&effects)
		if len(effects) == 0 {
			if idle {
				w.asleep = true
				w.wake.Wait()
				continue
			}
			w.thread.Spin(p, work, w.look)
			continue
		}
		w.thread.Exec(p, work)
		for _, e := range effects {
			w.apply(e)
		}
		w.refFlushCompletions(p)
		w.flushRetries()
	}
}

// refFlushCompletions posts queued VCQ entries and injects interrupts,
// blocking in Exec for each queue that takes entries.
func (w *worker) refFlushCompletions(p *sim.Proc) {
	c := w.r.costs
	for i := w.posting.next(0); i >= 0; i = w.posting.next(i + 1) {
		vc := w.vcs[i]
		waiting := false
		for _, vq := range vc.vqs {
			if len(vq.pendingVCQ) == 0 {
				continue
			}
			var cost sim.Duration
			n := 0
			for _, pc := range vq.pendingVCQ {
				if !vq.vcq.Push(&pc) {
					break
				}
				n++
				cost += c.CompleteVCQ
			}
			vq.pendingVCQ = append(vq.pendingVCQ[:0], vq.pendingVCQ[n:]...)
			if n > 0 {
				cost += c.IRQInject
				w.thread.Exec(p, cost)
				if vq.irq != nil {
					vq.irq()
				}
			}
			waiting = waiting || len(vq.pendingVCQ) > 0
		}
		if !waiting {
			w.posting.remove(i)
		}
	}
}

// workerLockResult is everything a run of one world leaves behind.
type workerLockResult struct {
	log        []string                  // guest completions and VCQ posts, in order
	cpu        []map[string]sim.Duration // per tag, at every RunUntil limit
	fullVCQ    int                       // VCQ posts that left the VCQ full
	books      map[string]uint64         // the router's counters
	qos        string                    // the arbiters' snapshot
	end        sim.Time
	dispatched uint64
	switches   uint64
	nextRand   int64
}

const (
	wlTenants = 4
	wlDepth   = 8  // guest queue pairs: VCQ and HSQ fill under load
	wlPerVM   = 70 // requests per tenant
)

// runWorkerWorld drives one randomized world through a two-shard router whose
// workers are reactors, or processes when reference is set. The tenants take
// every path: tenant 0 keeps the default classifier (promoted when the seed
// turns promotion on), tenant 1 a native classifier drawing random verdicts
// — any mix of the three paths, hooks, multicast, immediate completion —
// over a slow notify consumer on a 4-deep NSQ and a kernel target, tenant 2
// an eBPF program sending everything down the kernel path, tenant 3 a
// mirror to the fast and notify paths. Guests keep up to their queue depth in
// flight and share their vCPU's core with long stretches of other work, which
// holds off their interrupt handler until VCQs fill; a noise thread shares
// worker 0's core, so the worker's holds and spins queue behind it and it
// behind them. Alternate seeds arm QoS (SLO, best-effort and rate-limited
// tenants); every third drops device completions under short hop deadlines
// and tag reclaims. Everything random is drawn in an order that depends only
// on how the world behaves.
func runWorkerWorld(t *testing.T, seed int64, reference bool) workerLockResult {
	env := sim.New(seed)
	defer env.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	cpu := sim.NewCPU(env, 8)
	dev := device.New(env, device.Default970EvoPlus(), device.NewMemStore(512))
	if seed%3 == 1 {
		dev.InjectFaults(fault.NewPlan(seed).WithDrops(0.03, 12).Injector("device"))
	}
	threads := []*sim.Thread{cpu.ThreadOn(6, "router"), cpu.ThreadOn(7, "router")}
	var r *Router
	if reference {
		r = newRefRouter(env, DefaultRouterCosts(), threads)
	} else {
		r = NewRouter(env, DefaultRouterCosts(), threads)
	}
	if seed%3 == 1 {
		r.FastPathDeadline, r.HTagReclaim = 300*sim.Microsecond, 700*sim.Microsecond
	}
	if seed%2 == 0 {
		r.EnableQoS(qos.Config{Window: 20 * sim.Microsecond})
	}
	if seed%3 == 0 {
		r.EnablePromotion()
	}

	var res workerLockResult
	note := func(format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%d ", env.Now())+fmt.Sprintf(format, args...))
	}
	noise := cpu.ThreadOn(6, "noise")
	env.Go("noise", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Duration(1+rng.Intn(20)) * sim.Microsecond)
			noise.Exec(p, sim.Duration(1+rng.Intn(3000)))
		}
	})

	running := wlTenants
	for i := 0; i < wlTenants; i++ {
		i := i
		nsid := uint32(1)
		if i > 0 {
			nsid = dev.NextNSID()
			dev.AddNamespace(nsid, 1<<16, device.NewMemStore(512))
		}
		v := vm.New(env, i+1, cpu, i, 1, 16<<20, vm.DefaultVirtCosts())
		vc := r.Attach(v, device.WholeNamespace(dev, nsid))
		disk := vm.NewNVMeDisk(v, vc, wlDepth, vm.DefaultDriverCosts())
		vcq := vc.vqs[0].vcq
		vcq.OnPost = func() {
			note("vcq%d post", i)
			if vcq.Full() {
				res.fullVCQ++
			}
		}
		if vc.tenant != nil {
			vc.SetQoS([]qos.TenantConfig{
				{SLOTargetP99: 60 * sim.Microsecond},
				{BestEffort: true},
				{IOPS: 40000, BurstOps: 2},
				{Weight: 3},
			}[i])
		}
		switch i {
		case 1:
			attachLockUIF(env, vc, rng, note)
			vc.SetKernelTarget(&lockKernel{env: env, rng: rng})
			vc.SetNativeClassifier(randomVerdicts(rng))
		case 2:
			vc.SetKernelTarget(&lockKernel{env: env, rng: rng})
			prog := ebpf.NewBuilder().MovImm64(ebpf.R0, ActSendKQ|ActWillCompleteKQ).Exit().MustProgram("kernel-only")
			if err := vc.LoadClassifier(prog); err != nil {
				t.Fatal(err)
			}
		case 3:
			attachLockUIF(env, vc, rng, note)
			vc.SetNativeClassifier(func([]byte) uint64 {
				return ActSendHQ | ActSendNQ | ActWillCompleteHQ | ActWillCompleteNQ
			})
		}
		base, pages, err := v.Mem.AllocBuffer(4096)
		if err != nil {
			t.Fatal(err)
		}
		// The guest: up to qd requests in flight, each slot a loop of think
		// time on the vCPU, submit, completion; and now and then a long stretch
		// of other work on the vCPU's core, while the interrupt handler waits
		// and the VCQ fills.
		qd, issued, done := wlDepth/2+rng.Intn(wlDepth/2+1), 0, 0
		vcpu := v.VCPU(0)
		hog := cpu.ThreadOn(i, "hog")
		env.Go("hog", func(p *sim.Proc) {
			for {
				p.Sleep(sim.Duration(50+rng.Intn(250)) * sim.Microsecond)
				hog.Exec(p, sim.Duration(20+rng.Intn(130))*sim.Microsecond)
			}
		})
		for s := 0; s < qd; s++ {
			var think, submit func()
			req := &vm.Req{Blocks: 8, Buf: base, BufPages: pages}
			req.OnDone = func(r *vm.Req) {
				note("vm%d done %v", i, r.Status)
				if done++; done == wlPerVM {
					running--
				}
				think()
			}
			think = func() {
				if issued == wlPerVM {
					return
				}
				issued++
				vcpu.ExecFunc(sim.Duration(rng.Intn(4000)), submit)
			}
			submit = func() {
				req.Reset()
				req.Op = []vm.Op{vm.OpRead, vm.OpWrite, vm.OpRead, vm.OpFlush}[rng.Intn(4)]
				req.LBA = uint64(rng.Intn(1<<10)) * 8
				disk.SubmitFunc(vcpu, req, func() {})
			}
			env.After(0, think)
		}
	}

	snap := cpu.Snapshot()
	for limit := sim.Time(0); running > 0; {
		limit += sim.Time(1 + rng.Intn(60000))
		env.RunUntil(limit)
		res.cpu = append(res.cpu, cpu.Since(snap).ByTag)
		if limit > sim.Time(10*sim.Second) {
			t.Fatalf("seed %d reference=%v: %d tenants still running at %v", seed, reference, running, limit)
		}
	}
	res.books = map[string]uint64{}
	rv := reflect.ValueOf(r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			res.books[rv.Type().Field(i).Name] = f.Uint()
		}
	}
	res.qos = fmt.Sprintf("%+v", r.QoSSnapshot(env.Now()))
	res.end = env.Now()
	res.dispatched = env.Dispatched()
	res.switches = env.Switches()
	res.nextRand = env.Rand().Int63()
	return res
}

// randomVerdicts is a classifier that picks any well-formed routing decision
// (see TestRouterLivenessUnderArbitraryClassifiers), drawn from rng.
func randomVerdicts(rng *rand.Rand) NativeClassifier {
	return func(ctx []byte) uint64 {
		hook := uint32(ctx[CtxOffHook])
		if hook != HookVSQ && rng.Intn(2) == 0 {
			return ActComplete
		}
		var act uint64
		for _, b := range routeBits {
			if rng.Intn(2) == 0 {
				continue
			}
			act |= b.send
			switch rng.Intn(3) {
			case 0:
				if hook == HookVSQ {
					act |= b.hook
				} else {
					act |= b.willComplete
				}
			case 1:
				act |= b.willComplete
			}
		}
		if act == 0 && rng.Intn(2) == 0 {
			return ActComplete
		}
		return act
	}
}

// attachLockUIF attaches a notify consumer on a 4-deep NSQ: a process that
// takes each command after a random delay and completes it.
func attachLockUIF(env *sim.Env, vc *Controller, rng *rand.Rand, note func(string, ...any)) {
	nq := vc.AttachUIF(4)
	wake := sim.NewCond(env)
	nq.OnNotify = func() { wake.Signal(nil) }
	env.Go("uif", func(p *sim.Proc) {
		var cmd nvme.Command
		for {
			tag, ok := nq.Pop(&cmd)
			if !ok {
				wake.Wait()
				continue
			}
			p.Sleep(sim.Duration(rng.Intn(30)) * sim.Microsecond)
			st := nvme.SCSuccess
			if rng.Intn(10) == 0 {
				st = nvme.SCInternal
			}
			note("uif vm%d tag %d", vc.vm.ID, tag)
			nq.Complete(tag, st)
		}
	})
}

// lockKernel is a kernel target completing each command after a random delay.
type lockKernel struct {
	env *sim.Env
	rng *rand.Rand
}

func (k *lockKernel) Submit(_ nvme.Command, _ nvme.Memory, done func(nvme.Status)) {
	k.env.After(sim.Duration(k.rng.Intn(40))*sim.Microsecond, func() { done(nvme.SCSuccess) })
}

// TestWorkerLockstepWithProcessReference runs the router worker as the
// reactor it is and as the process it was over the same randomized worlds and
// requires that nothing but the number of run-token hand-offs can tell them
// apart: the guest completions and VCQ posts in order and time, per-tag CPU
// at every RunUntil limit, the router's and the arbiters' books, end time,
// events dispatched and the next random draw.
func TestWorkerLockstepWithProcessReference(t *testing.T) {
	var backpressure, timeouts, promoted uint64
	fullVCQ := 0
	for seed := int64(1); seed <= 12; seed++ {
		got, want := runWorkerWorld(t, seed, false), runWorkerWorld(t, seed, true)
		if t.Failed() {
			return
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: reactor %q, process %q", seed, i,
					len(got.log), len(want.log), got.log[min(i, len(got.log)-1)], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d log entries with the reactor, %d with the process", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.cpu, want.cpu) {
			t.Fatalf("seed %d: per-tag CPU at the RunUntil limits differs", seed)
		}
		if !reflect.DeepEqual(got.books, want.books) || got.qos != want.qos {
			t.Fatalf("seed %d: books differ:\n reactor: %v %s\n process: %v %s", seed, got.books, got.qos, want.books, want.qos)
		}
		if got.end != want.end || got.dispatched != want.dispatched || got.nextRand != want.nextRand {
			t.Fatalf("seed %d: end %v/%v, dispatched %d/%d, next rand %d/%d", seed,
				got.end, want.end, got.dispatched, want.dispatched, got.nextRand, want.nextRand)
		}
		if got.switches >= want.switches {
			t.Fatalf("seed %d: %d switches with the reactor, %d with the process", seed, got.switches, want.switches)
		}
		backpressure += want.books["Backpressure"]
		timeouts += want.books["HQTimeouts"]
		promoted += want.books["PromotedOps"]
		fullVCQ += want.fullVCQ
	}
	if backpressure == 0 || timeouts == 0 || promoted == 0 || fullVCQ == 0 {
		t.Fatalf("weak run: %d backpressure deferrals, %d hop timeouts, %d promoted commands, %d posts filling a VCQ",
			backpressure, timeouts, promoted, fullVCQ)
	}
}
