package harness

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
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

// awaitRouted drives the simulation until the supervisor has restarted and
// promoted its function (or a generous bound passes).
func awaitRouted(env *sim.Env, sup *supervise.Supervisor) bool {
	deadline := env.Now().Add(100 * sim.Millisecond)
	for sup.State() != supervise.StateRouted && env.Now() < deadline {
		env.RunUntil(env.Now().Add(100 * sim.Microsecond))
	}
	return sup.State() == supervise.StateRouted
}

// collectChaos folds the per-cell counter sources into out.counters.
func collectChaos(out *chaosRun, sup *supervise.Supervisor, vc *core.Controller, inj *fault.Injector) {
	sup.Collect(&out.counters)
	collectRouter(&out.counters, vc.Router())
	if inj != nil {
		inj.Collect(&out.counters)
	}
	out.counters.Add("fio.errors", out.res.Errors+out.tail.Errors)
}

// runChaosStack runs a solution-provisioned (cache or encryption) stack
// under supervision, arms plan at the UIF attachment site (nil = healthy
// baseline), and measures the faulted window plus a post-recovery tail.
func runChaosStack(o Options, mkSol func(h *stack.Host) *stack.NVMetro, plan *fault.Plan, site string, cfg fio.Config, jobs int) chaosRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	sol := mkSol(h).WithSupervision(chaosPolicy(o))
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	sup := sol.SupervisorFor(v)
	var inj *fault.Injector
	if plan != nil {
		inj = plan.Injector(site)
		sup.SetFaultInjector(inj)
	}
	targets := fioTargets(v, disk, jobs)
	out := chaosRun{converged: true, mirrorOK: true}
	out.res = fio.Run(env, h.CPU, targets, cfg)
	vc := sol.ControllerFor(v)
	out.drained = drainOutstanding(env, vc.Outstanding)
	out.routed = awaitRouted(env, sup)
	out.tail = fio.Run(env, h.CPU, targets, chaosTailCfg(o, cfg))
	out.drained = out.drained && drainOutstanding(env, vc.Outstanding)
	collectChaos(&out, sup, vc, inj)
	return out
}

// runChaosRepl runs the replication stack under supervision with content-
// backed stores on both legs, scheduled fabric outages (so the chaos can
// land while the resync engine is draining) and plan armed at the UIF
// site, then drives the mirror to convergence and compares the stores.
func runChaosRepl(o Options, plan *fault.Plan, outages []outageSpec, rcfg storfn.ResyncConfig, cfg fio.Config, jobs int) chaosRun {
	store := device.NewMemStore(512)
	env, h := newBed(o, store)
	defer env.Close()
	p := h.Params
	v := h.NewVM(4, 512<<20)
	router := core.NewRouter(env, p.Router, []*sim.Thread{h.HostThread("router")})
	vc := router.Attach(v, device.WholeNamespace(h.Dev, 1))

	rstore := device.NewMemStore(512)
	remote := stack.NewRemoteHost(env, 4, p.Device, rstore)
	for _, ow := range outages {
		remote.Link.ScheduleOutage(ow.at, ow.dur)
	}
	ini := remote.Secondary()(vc.Partition()).(*nvmeof.Initiator)
	rec := resyncRecovery
	rec.BackoffCap = 200 * sim.Microsecond
	rec.Jitter = 0.2
	if err := ini.SetRecovery(rec); err != nil {
		panic(err)
	}
	ring := blockdev.NewURing(env, ini, p.URing)
	fw := uif.NewFramework(env, p.UIF, []*sim.Thread{h.HostThread("uif")})
	rep := storfn.NewReplicator()
	fn := storfn.NewReplicatorSupervision(vc.Partition(), rep)
	pol := chaosPolicy(o)
	sup, err := supervise.Launch(env, fw, vc, ring, 512, fn, pol)
	if err != nil {
		panic(err)
	}
	primary := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(h.Dev, 1), h.CPU, 7, p.Block)
	rs, err := storfn.NewResyncer(env, rep, primary, sup.Attachment(), h.HostThread("resync"), h.Dev.Params().LBAShift, rcfg)
	if err != nil {
		panic(err)
	}
	fn.SetResyncer(rs)
	ini.OnReconnect(rs.OnLinkUp)
	var inj *fault.Injector
	if plan != nil {
		inj = plan.Injector("uif-replicator")
		sup.SetFaultInjector(inj)
	}

	disk := vm.NewNVMeDisk(v, vc, 128, p.Driver)
	targets := fioTargets(v, disk, jobs)
	out := chaosRun{}
	out.res = fio.Run(env, h.CPU, targets, cfg)
	out.drained = drainOutstanding(env, vc.Outstanding)
	out.routed = awaitRouted(env, sup)
	out.tail = fio.Run(env, h.CPU, targets, chaosTailCfg(o, cfg))
	out.drained = out.drained && drainOutstanding(env, vc.Outstanding)

	out.converged = driveInSync(env, rs, sim.Millisecond, env.Now().Add(2*sim.Second)) && rep.Dirty.Blocks() == 0
	out.mirrorOK = store.ContentCRC() == rstore.ContentCRC()

	collectChaos(&out, sup, vc, inj)
	collectReplicator(&out.counters, rep)
	collectInitiator(&out.counters, remote.Link, ini)
	rs.Collect(&out.counters)
	return out
}

// chaosCells returns the (function × fault) grid as labeled closures; each
// takes a nil plan for the healthy baseline.
type chaosCell struct {
	name string
	run  func(plan *fault.Plan) chaosRun
}

func chaosCells(o Options) []chaosCell {
	cfg := chaosCfg(o)
	wcfg := cfg
	wcfg.Mode = fio.RandWrite // only writes are mirrored
	warm, _ := o.windows()
	at := func(d sim.Duration) sim.Time { return sim.Time(0).Add(warm + d) }
	// A slow drain keeps the resync engine busy for most of the window, so
	// a rate-drawn chaos event has a real chance to land mid-resync.
	slow := storfn.DefaultResyncConfig()
	slow.Rate = 20e6
	outages := []outageSpec{{at(sim.Millisecond), 2 * sim.Millisecond}}
	cacheSol := func(h *stack.Host) *stack.NVMetro { return stack.NewNVMetro(h).WithCache(storfn.DefaultCacheParams()) }
	encrSol := func(h *stack.Host) *stack.NVMetro { return stack.NewNVMetro(h).WithEncryption(encryptionKey, false) }
	return []chaosCell{
		{"cacher", func(plan *fault.Plan) chaosRun {
			return runChaosStack(o, cacheSol, plan, "uif-cacher", cfg, 4)
		}},
		{"encryptor", func(plan *fault.Plan) chaosRun {
			return runChaosStack(o, encrSol, plan, "uif-encryptor", cfg, 4)
		}},
		{"replicator", func(plan *fault.Plan) chaosRun {
			return runChaosRepl(o, plan, outages, slow, wcfg, 4)
		}},
	}
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
	// Shard layout: per grid point (storage function), one healthy-baseline
	// shard plus one shard per fault kind — all nine runs are independent
	// simulations, merged back in (point, shard) order.
	g := o.group()
	type faultRow struct {
		name string
		kind string
		base *chaosRun
		cr   *chaosRun
	}
	var rows []faultRow
	for _, cell := range chaosCells(o) {
		run := cell.run
		base := shard(g, func() chaosRun { return run(nil) })
		for _, f := range []struct {
			kind  string
			crash bool
		}{{"crash", true}, {"wedge", false}} {
			crash := f.crash
			rows = append(rows, faultRow{
				name: cell.name,
				kind: f.kind,
				base: base,
				cr:   shard(g, func() chaosRun { return run(chaosPlan(o, crash)) }),
			})
		}
	}
	g.run()
	for _, row := range rows {
		base, cr := *row.base, *row.cr
		cs := &cr.counters
		sup := "sup." + row.name + "."
		site := "fault.uif-" + row.name + "."
		p99x, tailx := 0.0, 0.0
		if b := base.res.Lat.P99(); b > 0 {
			p99x = float64(cr.res.Lat.P99()) / float64(b)
		}
		if b := base.res.KIOPS(); b > 0 {
			tailx = cr.tail.KIOPS() / b
		}
		ok := 0.0
		if chaosOK(row.name, cr) {
			ok = 1
		}
		t.add(row.name+" "+row.kind,
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
			ok)
	}
	t.Notes = "p99x/tailx vs healthy same-seed baseline; ok = drained, detected, restarted, converged, and (except the fail-stop encryptor) zero guest errors"
	return t
}
