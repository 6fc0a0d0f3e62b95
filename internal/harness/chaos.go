package harness

import (
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
)

// The chaos experiment kills or wedges each storage function's UIF in the
// middle of a live workload and measures the supervision subsystem end to
// end: the watchdog must detect the failure from the outside (progress
// heartbeat / NSQ residency), the stranded in-flight commands must
// reconcile with no completion lost or misattributed, routing must degrade
// to the per-function fast-path policy with bounded tail latency, and a
// supervised restart must bring throughput back. The replication cell
// layers the chaos over fabric outages so the crash can land mid-resync;
// it must still converge to a bit-identical mirror.
func init() {
	register("chaos", "Chaos: UIF crash/wedge supervision — reconcile, degrade, restart", func(o Options) []*Table {
		return []*Table{chaosTable(o)}
	})
}

// chaosPolicy is the watchdog tuned to the harness windows: detection in a
// few hundred microseconds, restart fast enough to measure reconvergence
// inside the run.
func chaosPolicy(o Options) supervise.Policy {
	pol := supervise.DefaultPolicy()
	pol.HeartbeatInterval = 50 * sim.Microsecond
	pol.StallThreshold = 300 * sim.Microsecond
	pol.ResidencyDeadline = 2 * sim.Millisecond
	pol.RestartBackoff = 200 * sim.Microsecond
	pol.RestartBackoffCap = 1 * sim.Millisecond
	pol.HealthyReset = 5 * sim.Millisecond
	pol.Seed = o.Seed
	return pol
}

// chaosWedge is the injected stall length — far past the stall threshold,
// so a wedge is always a watchdog detection, never a self-heal.
const chaosWedge = 2 * sim.Millisecond

// chaosPlan builds the single-fault plan for one cell.
func chaosPlan(o Options, crash bool) *fault.Plan {
	if crash {
		return fault.NewPlan(o.Seed).WithUIFCrash(0.002, 1)
	}
	return fault.NewPlan(o.Seed).WithUIFWedge(0.002, 1, chaosWedge)
}

// chaosRun is one chaos workload outcome plus its healthy baseline.
type chaosRun struct {
	res       fio.Result // faulted window
	tail      fio.Result // post-recovery window
	counters  metrics.CounterSet
	drained   bool // every accepted guest command completed
	routed    bool // supervisor back on the routed path at the end
	converged bool // replication only: mirror drained to InSync
	mirrorOK  bool // replication only: stores bit-identical
}

// chaosCfg is the chaos workload for the non-replicated functions: zipf-
// skewed so the cache classifier heats buckets and diverts a steady stream
// to the notify path (the encryptor diverts everything regardless).
func chaosCfg(o Options) fio.Config {
	warm, dur := o.windows()
	return fio.Config{
		Mode: fio.RandRW, BlockSize: 4096, QD: 8,
		Warmup: warm, Duration: dur,
		WorkSet: 4 << 20, Zipf: 1.2,
	}
}

// chaosTailCfg is the post-recovery measurement window.
func chaosTailCfg(o Options, cfg fio.Config) fio.Config {
	cfg.Warmup = 500 * sim.Microsecond
	if o.Quick {
		cfg.Duration = 2 * sim.Millisecond
	} else {
		cfg.Duration = 6 * sim.Millisecond
	}
	return cfg
}

// runChaos runs storage function name ("cacher", "encryptor" or
// "replicator") under supervision, arms plan at its UIF attachment site
// (nil = healthy baseline), and measures the faulted window plus a
// post-recovery tail. The mirror is content-backed on both legs, with a
// fabric outage (so the chaos can land while the resync engine drains) and
// a slow drain; it must converge to bit-identical stores.
func runChaos(o Options, name string, plan *fault.Plan, cfg fio.Config, jobs int) chaosRun {
	var store, rstore *device.MemStore
	var backing device.Store = device.NullStore{}
	if name == "replicator" {
		store, rstore = device.NewMemStore(512), device.NewMemStore(512)
		backing = store
	}
	env, h := newBed(o, backing)
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	pol := chaosPolicy(o)
	spec := stack.Spec{Supervise: &pol}
	var m *mirror
	switch name {
	case "cacher":
		cp := storfn.DefaultCacheParams()
		spec.Cache = &cp
	case "encryptor":
		spec.Encrypt = &stack.Encryption{Key: encryptionKey}
	case "replicator":
		// A slow drain keeps the resync engine busy for most of the window,
		// so a rate-drawn chaos event has a real chance to land mid-resync.
		h.Params.Resync.Rate = 20e6
		warm, _ := o.windows()
		rec := resyncRecovery
		rec.BackoffCap = 200 * sim.Microsecond
		rec.Jitter = 0.2
		m = newMirror(env, h, rstore, []fault.Outage{{At: sim.Time(0).Add(warm + sim.Millisecond), Dur: 2 * sim.Millisecond}}, &rec)
		spec.Replicate = m.secondary
	}
	vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), spec)
	sup, vc := vol.Supervisor, vol.Ctrl
	var inj *fault.Injector
	if plan != nil {
		inj = plan.Injector("uif-" + name)
		sup.SetFaultInjector(inj)
	}
	targets := fio.Targets(v, vol.Disk, jobs)
	out := chaosRun{converged: true, mirrorOK: true}
	out.res = fio.Run(env, h.CPU, targets, cfg)
	out.drained = drainOutstanding(env, vc.Outstanding)
	out.routed = until(env, 100*sim.Microsecond, env.Now().Add(100*sim.Millisecond),
		func() bool { return sup.State() == supervise.StateRouted })
	out.tail = fio.Run(env, h.CPU, targets, chaosTailCfg(o, cfg))
	out.drained = out.drained && drainOutstanding(env, vc.Outstanding)
	if m != nil {
		out.converged = driveInSync(env, vol.Resyncer, sim.Millisecond, env.Now().Add(2*sim.Second)) &&
			vol.Replicator().Dirty.Blocks() == 0
		out.mirrorOK = store.ContentCRC() == rstore.ContentCRC()
		m.collect(&out.counters, vol)
	}

	sup.Collect(&out.counters)
	collectRouter(&out.counters, vc.Router())
	if inj != nil {
		inj.Collect(&out.counters)
	}
	out.counters.Add("fio.errors", out.res.Errors+out.tail.Errors)
	return out
}

// chaosCell is one storage function of the grid; run takes a nil plan for
// the healthy baseline.
type chaosCell struct {
	name string
	run  func(plan *fault.Plan) chaosRun
}

func chaosCells(o Options) []chaosCell {
	cfg := chaosCfg(o)
	wcfg := cfg
	wcfg.Mode = fio.RandWrite // only writes are mirrored
	cell := func(name string, cfg fio.Config) chaosCell {
		return chaosCell{name, func(plan *fault.Plan) chaosRun { return runChaos(o, name, plan, cfg, 4) }}
	}
	return []chaosCell{cell("cacher", cfg), cell("encryptor", cfg), cell("replicator", wcfg)}
}

// chaosOK applies the per-cell acceptance invariants.
func chaosOK(name string, cr chaosRun) bool {
	cs := &cr.counters
	ok := cr.drained && cr.routed && cr.converged && cr.mirrorOK &&
		cs.Get("sup."+name+".detections") >= 1 &&
		cs.Get("sup."+name+".restarts") >= 1
	if name != "encryptor" {
		// Only the fail-stop encryptor may surface (retryable) errors.
		ok = ok && cs.Get("fio.errors") == 0
	}
	return ok
}

// chaosTable runs the grid: every storage function under a crash and a
// wedge, each against its healthy same-seed baseline.
func chaosTable(o Options) *Table {
	t := &Table{
		ID:    "chaos",
		Title: "Chaos: UIF crash/wedge — detection, reconcile, degraded fast path, restart",
		Cols:  []string{"kIOPS", "p99x", "inj", "detect", "reconciled", "requeued", "restarts", "degr_us", "tailx", "errors", "ok"},
	}
	// Per storage function, a healthy baseline, a crash and a wedge: all
	// nine runs are independent simulations, merged back in that order.
	fns := chaosCells(o)
	runs := cells(o, 3*len(fns), func(k int) chaosRun {
		if k%3 == 0 {
			return fns[k/3].run(nil)
		}
		return fns[k/3].run(chaosPlan(o, k%3 == 1))
	})
	for k, cr := range runs {
		if k%3 == 0 {
			continue
		}
		name, kind, base := fns[k/3].name, "crash", runs[k-k%3]
		if k%3 == 2 {
			kind = "wedge"
		}
		cs := &cr.counters
		sup := "sup." + name + "."
		site := "fault.uif-" + name + "."
		p99x, tailx := 0.0, 0.0
		if b := base.res.Lat.P99(); b > 0 {
			p99x = float64(cr.res.Lat.P99()) / float64(b)
		}
		if b := base.res.KIOPS(); b > 0 {
			tailx = cr.tail.KIOPS() / b
		}
		t.add(name+" "+kind,
			cr.res.KIOPS(),
			p99x,
			float64(cs.Get(site+"uif-crash")+cs.Get(site+"uif-wedge")),
			float64(cs.Get(sup+"detections")),
			float64(cs.Get(sup+"reconciled_ok")+cs.Get(sup+"reconciled_err")),
			float64(cs.Get(sup+"requeued")),
			float64(cs.Get(sup+"restarts")),
			float64(cs.Get(sup+"degraded_us")),
			tailx,
			float64(cs.Get("fio.errors")),
			bit(chaosOK(name, cr)))
	}
	t.Notes = "p99x/tailx vs healthy same-seed baseline; ok = drained, detected, restarted, converged, and (except the fail-stop encryptor) zero guest errors"
	return t
}
