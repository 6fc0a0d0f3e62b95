package supervise_test

import (
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/supervise"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// The unit rig: a minimal host (device, router, framework) plus a toy
// storage function whose handler behaviour and reconcile verdict the test
// scripts directly — so each watchdog signal and lifecycle transition can
// be exercised in isolation from the real storage functions.

type rig struct {
	env    *sim.Env
	cpu    *sim.CPU
	dev    *device.Device
	router *core.Router
	fw     *uif.Framework
	v      *vm.VM
	vc     *core.Controller
	disk   *vm.NVMeDisk
}

func newRig() *rig {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 16)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, device.NullStore{})
	router := core.NewRouter(env, core.DefaultRouterCosts(), []*sim.Thread{cpu.ThreadOn(8, "router")})
	fw := uif.NewFramework(env, uif.DefaultCosts(), []*sim.Thread{cpu.ThreadOn(9, "uif")})
	v := vm.New(env, 0, cpu, 0, 1, 32<<20, vm.DefaultVirtCosts())
	vc := router.Attach(v, device.WholeNamespace(dev, 1))
	disk := vm.NewNVMeDisk(v, vc, 64, vm.DefaultDriverCosts())
	return &rig{env: env, cpu: cpu, dev: dev, router: router, fw: fw, v: v, vc: vc, disk: disk}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	r.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; r.env.Stop() })
	r.env.RunUntil(sim.Time(60 * sim.Second))
	r.env.Close()
	if !ok {
		t.Fatal("test did not finish in simulated time")
	}
}

func (r *rig) read(p *sim.Proc, lba uint64) nvme.Status {
	base, pages, err := r.v.Mem.AllocBuffer(4096)
	if err != nil {
		panic(err)
	}
	req := &vm.Req{Op: vm.OpRead, LBA: lba, Blocks: 8, Buf: base, BufPages: pages}
	return vm.SubmitAndWait(p, r.disk, r.v.VCPU(0), req)
}

// toyHandler services requests synchronously at a fixed cost, or — when
// blackhole is set — accepts them and never completes them (the most
// hostile failure: no error, no progress signal from the request itself).
type toyHandler struct {
	cost      sim.Duration
	blackhole bool
	served    int
	swallowed int
}

func (h *toyHandler) Work(p *sim.Proc, th *sim.Thread, req *uif.Request) (bool, nvme.Status) {
	if h.blackhole {
		h.swallowed++
		return true, nvme.SCSuccess // async, never completed
	}
	if h.cost > 0 {
		th.Exec(p, h.cost)
	}
	h.served++
	return false, nvme.SCSuccess
}

// toyFn is a scriptable supervise.Function: route-everything-to-NQ when
// promoted, fast-path-everything when degraded, reconcile per verdict.
type toyFn struct {
	verdict  core.ReconcileDecision
	sick     int // generations (from the first) built as blackholes
	builds   int
	degrades int
	promotes int
	handlers []*toyHandler

	// env, when set, has Degrade and Rebuild record the instants they run:
	// a failover degrades and the restart after its backoff rebuilds.
	env       *sim.Env
	degradeAt []sim.Time
	rebuildAt []sim.Time
}

func (f *toyFn) Name() string { return "toy" }

func (f *toyFn) Reconcile(nvme.Command) core.ReconcileDecision { return f.verdict }

func (f *toyFn) Degrade(vc *core.Controller) {
	f.degrades++
	if f.env != nil {
		f.degradeAt = append(f.degradeAt, f.env.Now())
	}
	prog := ebpf.NewBuilder().
		MovImm64(ebpf.R0, core.ActSendHQ|core.ActWillCompleteHQ).
		Exit().
		MustProgram("toy-fast")
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
}

func (f *toyFn) Rebuild() uif.Handler {
	h := &toyHandler{cost: 2 * sim.Microsecond, blackhole: f.builds < f.sick}
	f.builds++
	f.handlers = append(f.handlers, h)
	if f.env != nil {
		f.rebuildAt = append(f.rebuildAt, f.env.Now())
	}
	return h
}

func (f *toyFn) Promote(vc *core.Controller, _ *uif.Attachment) {
	f.promotes++
	prog := ebpf.NewBuilder().
		MovImm64(ebpf.R0, core.ActSendNQ|core.ActWillCompleteNQ).
		Exit().
		MustProgram("toy-nq")
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
}

func testPolicy() supervise.Policy {
	pol := supervise.DefaultPolicy()
	pol.HeartbeatInterval = 10 * sim.Microsecond
	pol.StallThreshold = 100 * sim.Microsecond
	pol.ResidencyDeadline = 0 // stall-only unless a test opts in
	pol.RestartBackoff = 50 * sim.Microsecond
	pol.RestartBackoffCap = 200 * sim.Microsecond
	pol.HealthyReset = 100 * sim.Millisecond
	return pol
}

// A wedged UIF (alive but not servicing) is detected by the progress
// heartbeat, its stranded commands are reconciled, and the restarted
// generation serves traffic again.
func TestWatchdogDetectsWedge(t *testing.T) {
	r := newRig()
	fn := &toyFn{verdict: core.ReconcileDecision{Action: core.ReconcileRequeue}}
	sup, err := supervise.Launch(r.env, r.fw, r.vc, nil, 64, fn, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ { // healthy traffic through the UIF
			if st := r.read(p, uint64(8*i)); !st.OK() {
				t.Fatalf("healthy read %d: %v", i, st)
			}
		}
		sup.Attachment().Wedge(sim.Second) // wedge far beyond the stall threshold
		done := make([]bool, 4)
		for i := range done {
			i := i
			r.env.Go("victim", func(p *sim.Proc) {
				if st := r.read(p, uint64(100+8*i)); !st.OK() {
					t.Errorf("victim read %d failed: %v", i, st)
				}
				done[i] = true
			})
		}
		for p.Now() < sim.Time(10*sim.Millisecond) && sup.Detections == 0 {
			p.Sleep(100 * sim.Microsecond)
		}
		for p.Now() < sim.Time(10*sim.Millisecond) && sup.State() != supervise.StateRouted {
			p.Sleep(100 * sim.Microsecond)
		}
		p.Sleep(sim.Millisecond)
		for i, d := range done {
			if !d {
				t.Fatalf("victim read %d never completed (lost command)", i)
			}
		}
	})
	if sup.StallDetections == 0 {
		t.Fatalf("wedge not detected by the progress heartbeat: %s", sup.String())
	}
	if sup.Requeued == 0 {
		t.Fatalf("stranded commands not requeued: %s", sup.String())
	}
	if sup.Restarts == 0 || sup.State() != supervise.StateRouted {
		t.Fatalf("function not restarted: %s", sup.String())
	}
	if fn.builds < 2 || fn.degrades == 0 || fn.promotes < 2 {
		t.Fatalf("lifecycle hooks not driven: builds=%d degrades=%d promotes=%d",
			fn.builds, fn.degrades, fn.promotes)
	}
	if sup.DegradedTime() <= 0 {
		t.Fatal("no degraded time accumulated")
	}
}

// A UIF that keeps making progress but silently swallows individual
// commands is caught by the NSQ residency deadline, not the heartbeat.
func TestWatchdogDetectsResidencyOverrun(t *testing.T) {
	r := newRig()
	fn := &toyFn{verdict: core.ReconcileDecision{Action: core.ReconcileComplete, Status: nvme.SCNSNotReady}, sick: 1}
	pol := testPolicy()
	pol.StallThreshold = sim.Second // heartbeat effectively disabled
	pol.ResidencyDeadline = 200 * sim.Microsecond
	sup, err := supervise.Launch(r.env, r.fw, r.vc, nil, 64, fn, pol)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		st := r.read(p, 0) // swallowed by the sick generation, reconciled with a retryable error
		if st.OK() {
			t.Fatalf("swallowed command completed OK, want retryable error")
		}
		if st != nvme.SCNSNotReady {
			t.Fatalf("reconciled status = %v, want SCNSNotReady", st)
		}
		for p.Now() < sim.Time(10*sim.Millisecond) && sup.State() != supervise.StateRouted {
			p.Sleep(100 * sim.Microsecond)
		}
		if st := r.read(p, 8); !st.OK() { // healthy second generation
			t.Fatalf("read after restart: %v", st)
		}
	})
	if sup.ResidencyDetections == 0 {
		t.Fatalf("residency overrun not detected: %s", sup.String())
	}
	if sup.ReconciledErr == 0 {
		t.Fatalf("swallowed command not reconciled with an error: %s", sup.String())
	}
}

// A function that keeps failing walks the exponential backoff ladder — each
// restart delay doubles up to the cap, spread by at most ±20 % — while the
// fast path keeps serving I/O.
func TestBackoffLadder(t *testing.T) {
	r := newRig()
	fn := &toyFn{verdict: core.ReconcileDecision{Action: core.ReconcileRequeue}, sick: 1 << 30, env: r.env}
	pol := testPolicy()
	sup, err := supervise.Launch(r.env, r.fw, r.vc, nil, 64, fn, pol)
	if err != nil {
		t.Fatal(err)
	}
	const failovers = 4
	r.run(t, func(p *sim.Proc) {
		for i := 0; p.Now() < sim.Time(20*sim.Millisecond) && len(fn.rebuildAt) <= failovers; i++ {
			if st := r.read(p, uint64(8*(i%64))); !st.OK() {
				t.Fatalf("read %d: %v", i, st)
			}
		}
	})
	if len(fn.rebuildAt) <= failovers {
		t.Fatalf("only %d restarts in 20ms: %s", len(fn.rebuildAt)-1, sup.String())
	}
	want := pol.RestartBackoff
	for k := 0; k < failovers; k++ {
		got := fn.rebuildAt[k+1].Sub(fn.degradeAt[k])
		if float64(got) < 0.8*float64(want) || float64(got) > 1.2*float64(want) {
			t.Errorf("restart delay after failover %d = %v, want %v ±20%%", k+1, got, want)
		}
		want = min(2*want, pol.RestartBackoffCap)
	}
	if n := sup.ConsecutiveFailures(); uint64(n) != sup.Detections || n < failovers {
		t.Fatalf("backoff ladder position = %d, want the %d detections: %s", n, sup.Detections, sup.String())
	}
}

// Sustained healthy uptime resets the consecutive-failure count, so an
// isolated later failure starts the backoff ladder from the bottom.
func TestHealthyUptimeResetsLadder(t *testing.T) {
	r := newRig()
	fn := &toyFn{verdict: core.ReconcileDecision{Action: core.ReconcileRequeue}, sick: 1}
	pol := testPolicy()
	pol.HealthyReset = sim.Millisecond
	sup, err := supervise.Launch(r.env, r.fw, r.vc, nil, 64, fn, pol)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		r.read(p, 0) // strands on the sick generation, triggers failover
		for p.Now() < sim.Time(10*sim.Millisecond) && sup.State() != supervise.StateRouted {
			p.Sleep(100 * sim.Microsecond)
		}
		if sup.ConsecutiveFailures() == 0 {
			t.Fatal("failure count reset before HealthyReset elapsed")
		}
		p.Sleep(2 * sim.Millisecond) // routed and healthy past HealthyReset
		if sup.ConsecutiveFailures() != 0 {
			t.Fatalf("failure count not reset after healthy uptime: %s", sup.String())
		}
	})
}

// Hot-swapping the classifier while UIF requests are in flight on the
// notify queues must not lose or corrupt either stream: in-flight
// notify-path commands drain through the UIF, post-swap commands take the
// fast path, and a swap back re-diverts without a gap.
func TestClassifierHotSwapMidFlight(t *testing.T) {
	r := newRig()
	fn := &toyFn{verdict: core.ReconcileDecision{Action: core.ReconcileRequeue}}
	pol := testPolicy()
	pol.StallThreshold = sim.Second // watchdog quiet: this test is about the swap
	sup, err := supervise.Launch(r.env, r.fw, r.vc, nil, 64, fn, pol)
	if err != nil {
		t.Fatal(err)
	}
	fn.handlers[0].cost = 200 * sim.Microsecond // slow UIF: swaps land mid-service
	const inflight = 8
	r.run(t, func(p *sim.Proc) {
		done := 0
		for i := 0; i < inflight; i++ {
			i := i
			r.env.Go("nq-inflight", func(p *sim.Proc) {
				if st := r.read(p, uint64(8*i)); !st.OK() {
					t.Errorf("in-flight notify read %d: %v", i, st)
				}
				done++
			})
		}
		p.Sleep(50 * sim.Microsecond) // let them reach the notify queues
		fn.Degrade(r.vc)              // hot-swap to the fast path mid-flight
		for i := 0; i < inflight; i++ {
			if st := r.read(p, uint64(8*i)); !st.OK() {
				t.Fatalf("fast-path read %d after swap: %v", i, st)
			}
		}
		fn.Promote(r.vc, sup.Attachment()) // and back
		for i := 0; i < inflight; i++ {
			if st := r.read(p, uint64(8*i)); !st.OK() {
				t.Fatalf("notify read %d after swap back: %v", i, st)
			}
		}
		for p.Now() < sim.Time(50*sim.Millisecond) && done < inflight {
			p.Sleep(100 * sim.Microsecond)
		}
		if done != inflight {
			t.Fatalf("only %d/%d in-flight notify commands completed across the swap", done, inflight)
		}
	})
	if sup.Detections != 0 {
		t.Fatalf("hot swap tripped the watchdog: %s", sup.String())
	}
	if fn.handlers[0].served < inflight {
		t.Fatalf("UIF served %d requests, want at least the %d in-flight ones", fn.handlers[0].served, inflight)
	}
}
