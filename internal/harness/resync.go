package harness

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// The resync experiment drives the replication stack through fabric
// outages and measures the drain back to a consistent mirror: guest
// writes landing during an outage degrade the mirror and accumulate
// dirty regions; the link-up callback triggers the Resyncer, which
// copies the dirty ranges from the primary to the secondary under a
// rate limit, re-dirtying anything the guest overwrites mid-copy, and
// verifies the result before declaring the mirror InSync. Every row
// must converge to a bit-identical secondary with zero guest-visible
// errors.
func init() {
	register("resync", "Replica resync: dirty-region drain back to a consistent mirror", func(o Options) []*Table {
		return []*Table{resyncTable(o)}
	})
}

// resyncRecovery makes secondary-leg failures resolve within the
// millisecond-scale outage windows: one 500 µs attempt (5x the worst
// healthy remote read RTT), no retries. Slow-timeout policies would let
// the link-up requeue mask the outage instead of exercising degraded
// mode and the resync path.
var resyncRecovery = nvmeof.InitiatorRecovery{
	Timeout:    500 * sim.Microsecond,
	MaxRetries: 0,
	Backoff:    50 * sim.Microsecond,
}

// outageSpec is one scheduled fabric outage.
type outageSpec struct {
	at  sim.Time
	dur sim.Duration
}

// resyncRun is one resync workload outcome.
type resyncRun struct {
	res         fio.Result
	counters    metrics.CounterSet
	drained     bool   // every accepted guest command completed
	converged   bool   // mirror reached InSync within the bound
	mirrorMatch bool   // primary and secondary stores are bit-identical
	finalDirty  uint64 // dirty blocks left after convergence (must be 0)
}

// runResync runs the replication stack with content-backed stores on
// both legs, a Resyncer wired to the initiator's link-up callback, and
// the given outage schedule, then drives the simulation until the
// mirror converges.
func runResync(o Options, outages []outageSpec, rcfg storfn.ResyncConfig, cfg fio.Config, jobs int) resyncRun {
	store := device.NewMemStore(512)
	env, h := newBed(o, store)
	defer env.Close()
	p := h.Params
	v := h.NewVM(4, 512<<20)
	router := core.NewRouter(env, p.Router, []*sim.Thread{h.HostThread("router")})
	vc := router.Attach(v, device.WholeNamespace(h.Dev, 1))
	prog, _ := storfn.ReplicatorClassifier(vc.Partition())
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}

	rstore := device.NewMemStore(512)
	remote := stack.NewRemoteHost(env, 4, p.Device, rstore)
	for _, ow := range outages {
		remote.Link.ScheduleOutage(ow.at, ow.dur)
	}
	ini := remote.Secondary()(vc.Partition()).(*nvmeof.Initiator)
	if err := ini.SetRecovery(resyncRecovery); err != nil {
		panic(err)
	}
	ring := blockdev.NewURing(env, ini, p.URing)
	fw := uif.NewFramework(env, p.UIF, []*sim.Thread{h.HostThread("uif")})
	rep := storfn.NewReplicator()
	att := fw.Attach(vc.AttachUIF(512), rep, ring)

	// The resyncer reads the primary through its own host block device so
	// drain traffic never contends with the guest's fast-path queues.
	primary := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(h.Dev, 1), h.CPU, 7, p.Block)
	rs, err := storfn.NewResyncer(env, rep, primary, att, h.HostThread("resync"), h.Dev.Params().LBAShift, rcfg)
	if err != nil {
		panic(err)
	}
	ini.OnReconnect(rs.OnLinkUp)

	disk := vm.NewNVMeDisk(v, vc, 128, p.Driver)
	out := resyncRun{res: fio.Run(env, h.CPU, fioTargets(v, disk, jobs), cfg)}
	out.drained = drainOutstanding(env, vc.Outstanding)

	out.converged = driveInSync(env, rs, sim.Millisecond, env.Now().Add(2*sim.Second))
	out.finalDirty = rep.Dirty.Blocks()
	out.mirrorMatch = store.ContentCRC() == rstore.ContentCRC()

	collectReplicator(&out.counters, rep)
	collectInitiator(&out.counters, remote.Link, ini)
	rs.Collect(&out.counters)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// driveInSync steps the simulation until the mirror has drained to InSync or
// the deadline passes, reporting which. It nudges the resyncer whenever it
// sits Degraded: the last outage (or a chaos degradation) may have outlived
// the workload, leaving no link-up to retrigger the drain.
func driveInSync(env *sim.Env, rs *storfn.Resyncer, step sim.Duration, deadline sim.Time) bool {
	for rs.State() != storfn.StateInSync && env.Now() < deadline {
		if rs.State() == storfn.StateDegraded {
			rs.Trigger()
		}
		env.RunUntil(env.Now().Add(step))
	}
	return rs.State() == storfn.StateInSync
}

// resyncTable exercises the resync engine across outage shapes: a single
// outage with a fast drain, a second outage landing mid-resync (the
// abort/re-trigger path), and repeated outages accumulating dirty state
// across interruptions.
func resyncTable(o Options) *Table {
	cfg := faultCfg(o)
	cfg.Mode = fio.RandWrite // only writes are mirrored
	warm, _ := o.windows()
	at := func(d sim.Duration) sim.Time { return sim.Time(0).Add(warm + d) }
	t := &Table{
		ID:    "resync",
		Title: "Replica resync: outage recovery back to a consistent mirror",
		Cols:  []string{"kIOPS", "degraded", "resynced", "redirtied", "aborts", "converged", "mirror_ok"},
	}
	slow := storfn.DefaultResyncConfig()
	slow.Rate = 20e6 // 20 MB/s: the drain outlives the second outage
	rows := []struct {
		name    string
		outages []outageSpec
		rcfg    storfn.ResyncConfig
	}{
		{"one 3ms outage", []outageSpec{{at(sim.Millisecond), 3 * sim.Millisecond}}, storfn.DefaultResyncConfig()},
		{"outage mid-resync", []outageSpec{
			{at(sim.Millisecond), 3 * sim.Millisecond},
			{at(6 * sim.Millisecond), 2 * sim.Millisecond},
		}, slow},
		{"three outages", []outageSpec{
			{at(sim.Millisecond), 2 * sim.Millisecond},
			{at(4 * sim.Millisecond), sim.Millisecond},
			{at(6 * sim.Millisecond), 2 * sim.Millisecond},
		}, slow},
	}
	// One shard per outage shape; rows assemble in declaration order.
	g := o.group()
	runs := make([]*resyncRun, len(rows))
	for i, row := range rows {
		row := row
		runs[i] = shard(g, func() resyncRun { return runResync(o, row.outages, row.rcfg, cfg, 4) })
	}
	g.Run()
	for i, row := range rows {
		rr := *runs[i]
		converged, mirrorOK := 0.0, 0.0
		if rr.converged && rr.drained && rr.finalDirty == 0 {
			converged = 1
		}
		if rr.mirrorMatch {
			mirrorOK = 1
		}
		t.Add(row.name,
			rr.res.KIOPS(),
			float64(rr.counters.Get("rep.degraded")),
			float64(rr.counters.Get("rs.resynced_blocks")),
			float64(rr.counters.Get("rs.redirtied_blocks")),
			float64(rr.counters.Get("rs.aborts")),
			converged,
			mirrorOK)
	}
	t.Notes = "converged = drained, InSync and zero dirty blocks; mirror_ok = primary and secondary stores bit-identical"
	return t
}
