package harness

import (
	"fmt"

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
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// The fault experiment exercises the robustness machinery end to end: a
// media-error-rate sweep across stacks (every injected error must surface
// as a guest completion, never a hang), the fast-path drop/stuck recovery
// paths under a tightened router deadline, and replication resilience with
// remote media errors and a fabric outage (degraded writes, dirty-region
// tracking, link-up requeue).
func init() {
	register("fault", "Fault injection: media-error sweep and recovery paths", func(o Options) []*Table {
		return []*Table{faultSweep(o), faultRecovery(o), faultReplication(o)}
	})
}

// faultCfg is the workload used by every fault run: mixed 4 KiB random
// I/O so both read and write media-error rules are exercised.
func faultCfg(o Options) fio.Config {
	warm, dur := o.windows()
	return fio.Config{Mode: fio.RandRW, BlockSize: 4096, QD: 8, Warmup: warm, Duration: dur}
}

// faultRun is one fault-injected workload outcome.
type faultRun struct {
	res      fio.Result
	counters metrics.CounterSet
	drained  bool // every accepted guest command completed
}

// drainOutstanding runs the simulation until outstanding() reaches zero
// (or a generous bound passes), reporting whether it drained.
func drainOutstanding(env *sim.Env, outstanding func() int) bool {
	deadline := env.Now().Add(2 * sim.Second)
	for outstanding() > 0 && env.Now() < deadline {
		env.RunUntil(env.Now().Add(sim.Millisecond))
	}
	return outstanding() == 0
}

// collectDevice folds device-side fault counters into cs.
func collectDevice(cs *metrics.CounterSet, prefix string, d *device.Device) {
	cs.Add(prefix+".injected", d.FaultInjector().InjectedTotal())
	cs.Add(prefix+".media_errors", d.MediaErrors)
	cs.Add(prefix+".dropped", d.DroppedComps)
	cs.Add(prefix+".stuck", d.StuckComps)
}

// collectRouter folds router error counters into cs.
func collectRouter(cs *metrics.CounterSet, r *core.Router) {
	cs.Add("rt.fast_errors", r.FastPathErrors)
	cs.Add("rt.notify_errors", r.NotifyPathErrors)
	cs.Add("rt.kernel_errors", r.KernelPathErrors)
	cs.Add("rt.guest_errors", r.GuestErrors)
	cs.Add("rt.stale_comps", r.StaleComps)
	cs.Add("rt.hq_timeouts", r.HQTimeouts)
	cs.Add("rt.htags_reclaimed", r.HTagsReclaimed)
	cs.Add("rt.backpressure", r.Backpressure)
}

// collectInitiator folds fabric recovery counters into cs.
func collectInitiator(cs *metrics.CounterSet, l *nvmeof.Link, ini *nvmeof.Initiator) {
	cs.Add("link.drops", l.Drops[0]+l.Drops[1])
	cs.Add("of.retries", ini.Retries)
	cs.Add("of.requeues", ini.Requeues)
	cs.Add("of.reconnects", ini.Reconnects)
	cs.Add("of.failures", ini.Failures)
	cs.Add("of.stale_responses", ini.StaleResponses)
}

// collectReplicator folds degraded-mode counters into cs.
func collectReplicator(cs *metrics.CounterSet, rep *storfn.Replicator) {
	cs.Add("rep.degraded", rep.Degraded)
	cs.Add("rep.secondary_errors", rep.SecondaryErrors)
	cs.Add("rep.dirty_regions", uint64(rep.Dirty.Regions()))
	cs.Add("rep.dirty_blocks", rep.Dirty.Blocks())
}

// runFaultNVMetro runs the fast-path stack with plan injected at the
// device, optionally tuning the router's recovery policy first.
func runFaultNVMetro(o Options, plan *fault.Plan, tune func(*core.Router), cfg fio.Config, jobs int) faultRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	h.Dev.InjectFaults(plan.Injector("device"))
	v := h.NewVM(4, 512<<20)
	router := core.NewRouter(env, h.Params.Router, []*sim.Thread{h.HostThread("router")})
	if tune != nil {
		tune(router)
	}
	vc := router.Attach(v, device.WholeNamespace(h.Dev, 1))
	disk := vm.NewNVMeDisk(v, vc, 128, h.Params.Driver)

	out := faultRun{res: fio.Run(env, h.CPU, fioTargets(v, disk, jobs), cfg)}
	out.drained = drainOutstanding(env, vc.Outstanding)
	collectDevice(&out.counters, "dev", h.Dev)
	collectRouter(&out.counters, router)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// runFaultMDev runs the MDev baseline with media errors injected at the
// device (MDev has no drop recovery, so plans must keep completions
// flowing).
func runFaultMDev(o Options, plan *fault.Plan, cfg fio.Config, jobs int) faultRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	h.Dev.InjectFaults(plan.Injector("device"))
	v := h.NewVM(4, 512<<20)
	disk := stack.NewMDev(h).Provision(v, device.WholeNamespace(h.Dev, 1))
	out := faultRun{res: fio.Run(env, h.CPU, fioTargets(v, disk, jobs), cfg), drained: true}
	collectDevice(&out.counters, "dev", h.Dev)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// runFaultRepl runs the replication stack: local fast path plus the
// Replicator UIF mirroring to a remote device over the fabric. plan's
// media rules are injected at the remote device and its outages on the
// link, so secondary-leg failures exercise degraded mode.
func runFaultRepl(o Options, plan *fault.Plan, tune func(*core.Router), cfg fio.Config, jobs int) faultRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	p := h.Params
	v := h.NewVM(4, 512<<20)
	router := core.NewRouter(env, p.Router, []*sim.Thread{h.HostThread("router")})
	if tune != nil {
		tune(router)
	}
	vc := router.Attach(v, device.WholeNamespace(h.Dev, 1))
	prog, _ := storfn.ReplicatorClassifier(vc.Partition())
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
	remote := stack.NewRemoteHost(env, 4, p.Device, device.NullStore{})
	remote.Dev.InjectFaults(plan.Injector("remote-device"))
	remote.Link.ApplyPlan(plan)
	ini := remote.Secondary()(vc.Partition()).(*nvmeof.Initiator)
	ring := blockdev.NewURing(env, ini, p.URing)
	fw := uif.NewFramework(env, p.UIF, []*sim.Thread{h.HostThread("uif")})
	rep := storfn.NewReplicator()
	fw.Attach(vc.AttachUIF(512), rep, ring)
	disk := vm.NewNVMeDisk(v, vc, 128, p.Driver)

	out := faultRun{res: fio.Run(env, h.CPU, fioTargets(v, disk, jobs), cfg)}
	out.drained = drainOutstanding(env, vc.Outstanding)
	collectDevice(&out.counters, "rdev", remote.Dev)
	collectRouter(&out.counters, router)
	collectInitiator(&out.counters, remote.Link, ini)
	collectReplicator(&out.counters, rep)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// faultRates returns the media-error sweep grid.
func faultRates(o Options) []float64 {
	if o.Quick {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.001, 0.01, 0.05}
}

// faultSweep is the media-error-rate sweep: throughput holds and every
// injected error surfaces as a guest-visible completion on every stack.
func faultSweep(o Options) *Table {
	rates := faultRates(o)
	cfg := faultCfg(o)
	t := &Table{ID: "fault-sweep", Title: "Media-error sweep: guest-visible errors per 1000 ops", Unit: "errors/kop"}
	for _, r := range rates {
		t.Cols = append(t.Cols, fmt.Sprintf("%.1f%%", r*100))
	}
	type run func(rate float64) faultRun
	stacks := []struct {
		name string
		run  run
	}{
		{"NVMetro", func(rate float64) faultRun {
			return runFaultNVMetro(o, fault.NewPlan(o.Seed).WithMediaErrors(rate), nil, cfg, 4)
		}},
		{"MDev", func(rate float64) faultRun {
			return runFaultMDev(o, fault.NewPlan(o.Seed).WithMediaErrors(rate), cfg, 4)
		}},
	}
	// Shards: one per (stack, rate) grid cell; each row merges its cells in
	// rate order after the group runs.
	g := o.group()
	runs := make([][]*faultRun, len(stacks))
	for i, s := range stacks {
		run := s.run
		for _, rate := range rates {
			rate := rate
			runs[i] = append(runs[i], shard(g, func() faultRun { return run(rate) }))
		}
	}
	g.Run()
	for i, s := range stacks {
		var cells []float64
		for _, fr := range runs[i] {
			perKop := 0.0
			if fr.res.Ops > 0 {
				perKop = float64(fr.res.Errors) / float64(fr.res.Ops) * 1e3
			}
			if !fr.drained {
				perKop = -1 // hang marker; must never happen
			}
			cells = append(cells, perKop)
		}
		t.Add(s.name, cells...)
	}
	t.Notes = "errors surface as completions; -1 would mean a hang (commands stuck in flight)"
	return t
}

// tightRouter gives the fast path an aggressive recovery policy so drop
// and stuck faults resolve within the measurement window. The reclaim
// window stays above the largest injected stuck delay: a tag recycled
// before its late completion arrives could be misattributed.
func tightRouter(r *core.Router) {
	r.FastPathDeadline = 2 * sim.Millisecond
	r.HTagReclaim = 8 * sim.Millisecond
}

// faultRecovery exercises the fast-path drop/stuck recovery machinery.
func faultRecovery(o Options) *Table {
	cfg := faultCfg(o)
	t := &Table{
		ID:    "fault-recovery",
		Title: "Fast-path recovery under dropped/stuck completions",
		Cols:  []string{"injected", "hq_timeouts", "stale_comps", "guest_errors", "drained"},
	}
	rows := []struct {
		name string
		plan *fault.Plan
	}{
		{"drop 2%", fault.NewPlan(o.Seed).WithDrops(0.02, 0)},
		{"stuck 2% (5ms)", fault.NewPlan(o.Seed).WithStuck(0.02, 0, 5*sim.Millisecond)},
	}
	g := o.group()
	runs := make([]*faultRun, len(rows))
	for i, row := range rows {
		plan := row.plan
		runs[i] = shard(g, func() faultRun { return runFaultNVMetro(o, plan, tightRouter, cfg, 4) })
	}
	g.Run()
	for i, row := range rows {
		fr := *runs[i]
		drained := 0.0
		if fr.drained {
			drained = 1
		}
		t.Add(row.name,
			float64(fr.counters.Get("dev.injected")),
			float64(fr.counters.Get("rt.hq_timeouts")),
			float64(fr.counters.Get("rt.stale_comps")),
			float64(fr.counters.Get("rt.guest_errors")),
			drained)
	}
	t.Notes = "dropped completions resolve via deadline abort; stuck ones arrive late and are counted stale"
	return t
}

// faultReplication exercises degraded-mode mirroring: remote media errors
// and a fabric outage must never fail or hang a guest write.
func faultReplication(o Options) *Table {
	cfg := faultCfg(o)
	cfg.Mode = fio.RandWrite // only writes are mirrored
	warm, _ := o.windows()
	outageAt := sim.Time(0).Add(warm + 2*sim.Millisecond)
	t := &Table{
		ID:    "fault-repl",
		Title: "Replication resilience: degraded writes and dirty-region tracking",
		Cols:  []string{"kIOPS", "degraded", "dirty_blocks", "requeues", "failures", "drained"},
	}
	rows := []struct {
		name string
		plan *fault.Plan
	}{
		{"remote 1% media", fault.NewPlan(o.Seed).WithMediaErrors(0.01)},
		{"remote 1% media + 10ms outage", fault.NewPlan(o.Seed).WithMediaErrors(0.01).WithOutage(outageAt, 10*sim.Millisecond)},
	}
	g := o.group()
	runs := make([]*faultRun, len(rows))
	for i, row := range rows {
		plan := row.plan
		runs[i] = shard(g, func() faultRun { return runFaultRepl(o, plan, nil, cfg, 4) })
	}
	g.Run()
	for i, row := range rows {
		fr := *runs[i]
		drained := 0.0
		if fr.drained {
			drained = 1
		}
		t.Add(row.name,
			fr.res.KIOPS(),
			float64(fr.counters.Get("rep.degraded")),
			float64(fr.counters.Get("rep.dirty_blocks")),
			float64(fr.counters.Get("of.requeues")),
			float64(fr.counters.Get("of.failures")),
			drained)
	}
	t.Notes = "guest writes complete from the primary alone when the secondary leg fails"
	return t
}
