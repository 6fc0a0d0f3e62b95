package harness

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
)

// The resync experiment drives the replication stack through fabric
// outages and measures the drain back to a consistent mirror: guest
// writes landing during an outage degrade the mirror and accumulate
// dirty regions; the link-up of the volume's fabric secondary triggers the
// Resyncer the stack wires for every replicated volume, which
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

// mirror is a replication secondary on a remote host, with the outages
// scheduled on its link: secondary is the factory Spec.Replicate takes.
// It applies the experiment's fabric recovery policy (nil keeps the
// default) to the initiator it opens and keeps that for the counters.
type mirror struct {
	remote *stack.RemoteHost
	rec    *nvmeof.InitiatorRecovery
	ini    *nvmeof.Initiator
}

func newMirror(env *sim.Env, h *stack.Host, store device.Store, outages []fault.Outage, rec *nvmeof.InitiatorRecovery) *mirror {
	m := &mirror{remote: stack.NewRemoteHost(env, 4, h.Params.Device, store), rec: rec}
	for _, ow := range outages {
		m.remote.Link.ScheduleOutage(ow.At, ow.Dur)
	}
	return m
}

func (m *mirror) secondary(part device.Partition) blockdev.BlockDevice {
	m.ini = m.remote.Secondary()(part).(*nvmeof.Initiator)
	if m.rec != nil {
		if err := m.ini.SetRecovery(*m.rec); err != nil {
			panic(err)
		}
	}
	return m.ini
}

// collect folds vol's degraded-mode replicator state, the fabric's recovery
// counters and the resync engine's into cs.
func (m *mirror) collect(cs *metrics.CounterSet, vol *stack.Volume) {
	rep := vol.Replicator()
	cs.Add("rep.degraded", rep.Degraded)
	cs.Add("rep.secondary_errors", rep.SecondaryErrors)
	cs.Add("rep.dirty_regions", uint64(rep.Dirty.Regions()))
	cs.Add("rep.dirty_blocks", rep.Dirty.Blocks())
	cs.Add("link.drops", m.remote.Link.Drops[0]+m.remote.Link.Drops[1])
	cs.Add("of.retries", m.ini.Retries)
	cs.Add("of.requeues", m.ini.Requeues)
	cs.Add("of.reconnects", m.ini.Reconnects)
	cs.Add("of.failures", m.ini.Failures)
	cs.Add("of.stale_responses", m.ini.StaleResponses)
	vol.Resyncer.Collect(cs)
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
// both legs, the resync engine draining at rcfg's rate and the given
// outage schedule, then drives the simulation until the mirror converges.
func runResync(o Options, outages []fault.Outage, rcfg storfn.ResyncConfig, cfg fio.Config, jobs int) resyncRun {
	store, rstore := device.NewMemStore(512), device.NewMemStore(512)
	env, h := newBed(o, store)
	defer env.Close()
	h.Params.Resync = rcfg
	v := h.NewVM(4, 512<<20)
	m := newMirror(env, h, rstore, outages, &resyncRecovery)
	vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), stack.Spec{Replicate: m.secondary})

	out := resyncRun{res: fio.Run(env, h.CPU, fio.Targets(v, vol.Disk, jobs), cfg)}
	out.drained = drainOutstanding(env, vol.Ctrl.Outstanding)
	out.converged = driveInSync(env, vol.Resyncer, sim.Millisecond, env.Now().Add(2*sim.Second))
	out.finalDirty = vol.Replicator().Dirty.Blocks()
	out.mirrorMatch = store.ContentCRC() == rstore.ContentCRC()

	m.collect(&out.counters, vol)
	out.counters.Add("fio.errors", out.res.Errors)
	return out
}

// driveInSync steps the simulation until the mirror has drained to InSync or
// the deadline passes, reporting which. It nudges the resyncer whenever it
// sits Degraded: the last outage (or a chaos degradation) may have outlived
// the workload, leaving no link-up to retrigger the drain.
func driveInSync(env *sim.Env, rs *storfn.Resyncer, step sim.Duration, deadline sim.Time) bool {
	return until(env, step, deadline, func() bool {
		if rs.State() == storfn.StateDegraded {
			rs.Trigger()
		}
		return rs.State() == storfn.StateInSync
	})
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
		outages []fault.Outage
		rcfg    storfn.ResyncConfig
	}{
		{"one 3ms outage", []fault.Outage{{At: at(sim.Millisecond), Dur: 3 * sim.Millisecond}}, storfn.DefaultResyncConfig()},
		{"outage mid-resync", []fault.Outage{
			{At: at(sim.Millisecond), Dur: 3 * sim.Millisecond},
			{At: at(6 * sim.Millisecond), Dur: 2 * sim.Millisecond},
		}, slow},
		{"three outages", []fault.Outage{
			{At: at(sim.Millisecond), Dur: 2 * sim.Millisecond},
			{At: at(4 * sim.Millisecond), Dur: sim.Millisecond},
			{At: at(6 * sim.Millisecond), Dur: 2 * sim.Millisecond},
		}, slow},
	}
	runs := cells(o, len(rows), func(i int) resyncRun { return runResync(o, rows[i].outages, rows[i].rcfg, cfg, 4) })
	for i, row := range rows {
		rr := runs[i]
		t.add(row.name,
			rr.res.KIOPS(),
			float64(rr.counters.Get("rep.degraded")),
			float64(rr.counters.Get("rs.resynced_blocks")),
			float64(rr.counters.Get("rs.redirtied_blocks")),
			float64(rr.counters.Get("rs.aborts")),
			bit(rr.converged && rr.drained && rr.finalDirty == 0),
			bit(rr.mirrorMatch))
	}
	t.Notes = "converged = drained, InSync and zero dirty blocks; mirror_ok = primary and secondary stores bit-identical"
	return t
}
