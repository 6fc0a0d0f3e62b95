package uif

import "nvmetro/internal/sim"

// spin is the idle branch of pollLoop: busy-poll after an empty sweep that
// began at swept, idle being the time already spun since a sweep last found
// work. It returns the new idle time. The rounds whose sweeps could find
// nothing are taken in one step (sim.Thread.Spin) and still count as polls;
// what an empty sweep can find by the clock alone — the idle budget running
// out, a stalled attachment's wedge expiring — bounds the step. This lives
// outside framework.go because Table I reports that file's line count.
func (f *Framework) spin(p *sim.Proc, th *sim.Thread, idle sim.Duration, swept sim.Time) sim.Duration {
	now := f.env.Now()
	until := now.Add(f.costs.IdlePark - idle)
	for _, att := range f.atts {
		if att.state == AttWedged && !att.wedgeForever && att.wedgeUntil < until {
			until = att.wedgeUntil
		}
	}
	if now != swept {
		// The empty sweep took time: it reaped ring completions nobody
		// owns any more (StaleRingComps), which are charged but are not
		// work. Whatever was queued meanwhile on a source the sweep had
		// already passed — Defer, SubmitBackendIO, an earlier attachment's
		// NSQ — went unseen, and unhinted since the poller is awake. One
		// round, then look again.
		until = now
	}
	n := th.Spin(p, f.costs.Poll, until)
	f.Polls += uint64(n - 1)
	return idle + sim.Duration(n)*f.costs.Poll
}
