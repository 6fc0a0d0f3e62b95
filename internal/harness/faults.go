package harness

import (
	"fmt"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
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

// runFault runs mk's solution with plan injected at the device. On an
// NVMetro stack tune (when set) adjusts the router's recovery policy after
// Provision, and the run drains and reports router counters; the MDev
// baseline has no drop recovery, so its plans must keep completions
// flowing.
func runFault(o Options, mk solFactory, plan *fault.Plan, tune func(*core.Router), cfg fio.Config, jobs int) faultRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	h.Dev.InjectFaults(plan.Injector("device"))
	v := h.NewVM(4, 512<<20)
	sol := mk(env, h)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	nv, _ := sol.(*stack.NVMetro)
	if nv != nil && tune != nil {
		tune(nv.ControllerFor(v).Router())
	}
	out := faultRun{res: fio.Run(env, h.CPU, fio.Targets(v, disk, jobs), cfg), drained: true}
	if nv != nil {
		vc := nv.ControllerFor(v)
		out.drained = drainOutstanding(env, vc.Outstanding)
		collectRouter(&out.counters, vc.Router())
	}
	collectDevice(&out.counters, "dev", h.Dev)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// runFaultRepl runs the replication stack: local fast path plus the
// Replicator UIF mirroring to a remote device over the fabric. plan's
// media rules are injected at the remote device and outages are scheduled
// on the link, so secondary-leg failures exercise degraded mode. After the
// counters are taken the mirror is driven to InSync: rs.settled counts 1
// when it gets there with no dirty block left.
func runFaultRepl(o Options, plan *fault.Plan, outages []fault.Outage, cfg fio.Config, jobs int) faultRun {
	env, h := newBed(o, device.NullStore{})
	defer env.Close()
	v := h.NewVM(4, 512<<20)
	m := newMirror(env, h, device.NullStore{}, outages, nil)
	m.remote.Dev.InjectFaults(plan.Injector("remote-device"))
	vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), stack.Spec{Replicate: m.secondary})
	vc := vol.Ctrl

	out := faultRun{res: fio.Run(env, h.CPU, fio.Targets(v, vol.Disk, jobs), cfg)}
	out.drained = drainOutstanding(env, vc.Outstanding)
	collectDevice(&out.counters, "rdev", m.remote.Dev)
	collectRouter(&out.counters, vc.Router())
	m.collect(&out.counters, vol)
	out.counters.Add("fio.errors", out.res.Errors)
	settled := driveInSync(env, vol.Resyncer, sim.Millisecond, env.Now().Add(2*sim.Second)) &&
		vol.Replicator().Dirty.Blocks() == 0
	out.counters.Add("rs.settled", uint64(bit(settled)))
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
	sols := basicSolutions()[:2] // NVMetro and MDev
	// One cell per (stack, rate); each row takes its cells in rate order.
	runs := cells(o, len(sols)*len(rates), func(k int) faultRun {
		plan := fault.NewPlan(o.Seed).WithMediaErrors(rates[k%len(rates)])
		return runFault(o, sols[k/len(rates)].mk, plan, nil, cfg, 4)
	})
	for i, s := range sols {
		var row []float64
		for _, fr := range runs[i*len(rates) : (i+1)*len(rates)] {
			perKop := 0.0
			if fr.res.Ops > 0 {
				perKop = float64(fr.res.Errors) / float64(fr.res.Ops) * 1e3
			}
			if !fr.drained {
				perKop = -1 // hang marker; must never happen
			}
			row = append(row, perKop)
		}
		t.add(s.name, row...)
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
	nvmetro := basicSolutions()[0].mk
	runs := cells(o, len(rows), func(i int) faultRun { return runFault(o, nvmetro, rows[i].plan, tightRouter, cfg, 4) })
	for i, row := range rows {
		fr := runs[i]
		t.add(row.name,
			float64(fr.counters.Get("dev.injected")),
			float64(fr.counters.Get("rt.hq_timeouts")),
			float64(fr.counters.Get("rt.stale_comps")),
			float64(fr.counters.Get("rt.guest_errors")),
			bit(fr.drained))
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
		name    string
		plan    *fault.Plan
		outages []fault.Outage
	}{
		{"remote 1% media", fault.NewPlan(o.Seed).WithMediaErrors(0.01), nil},
		{"remote 1% media + 10ms outage", fault.NewPlan(o.Seed).WithMediaErrors(0.01), []fault.Outage{{At: outageAt, Dur: 10 * sim.Millisecond}}},
	}
	runs := cells(o, len(rows), func(i int) faultRun { return runFaultRepl(o, rows[i].plan, rows[i].outages, cfg, 4) })
	for i, row := range rows {
		fr := runs[i]
		t.add(row.name,
			fr.res.KIOPS(),
			float64(fr.counters.Get("rep.degraded")),
			float64(fr.counters.Get("rep.dirty_blocks")),
			float64(fr.counters.Get("of.requeues")),
			float64(fr.counters.Get("of.failures")),
			bit(fr.drained))
	}
	t.Notes = "guest writes complete from the primary alone when the secondary leg fails"
	return t
}
