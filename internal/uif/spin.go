package uif

import "nvmetro/internal/sim"

// spinner is the idle branch of one polling thread's pollLoop: busy-poll after
// an empty sweep, in rounds that sim.Thread.Spin runs without the thread's
// process until one of them has something to look at. It lives outside
// framework.go because Table I reports that file's line count.
type spinner struct {
	f      *Framework
	th     *sim.Thread
	look   func(int) sim.Time // s.poll, bound once
	parkAt sim.Time           // end of the idle budget
}

func (f *Framework) newSpinner(th *sim.Thread) *spinner {
	s := &spinner{f: f, th: th}
	s.look = s.poll
	return s
}

// spin busy-polls after an empty sweep, idle being the time already spun
// since a sweep last found work, and returns the new idle time. The sweep may
// have taken time all the same — reaping ring completions nobody owns any more
// (StaleRingComps) is charged but is not work — and whatever was queued
// meanwhile on a source it had already passed went unseen, and unhinted since
// the poller is awake: Spin's first look, on entry, sees it.
func (s *spinner) spin(p *sim.Proc, idle sim.Duration) sim.Duration {
	f := s.f
	s.parkAt = f.env.Now().Add(f.costs.IdlePark - idle)
	n := s.th.Spin(p, f.costs.Poll, s.look)
	// The sweep due at the boundary Spin came back on is pollLoop's next one,
	// which counts itself.
	f.Polls--
	return idle + sim.Duration(n)*f.costs.Poll
}

// poll is pollLoop's pass over the attachments reduced to looking (see
// sim.Thread.Spin). The sweeps it stands in for are polls like any other, and
// are counted as the rounds complete: other processes read Polls mid-spin.
// Anything a sweep would service or be charged for says "look" — deferred
// work, queued backend I/O, a ring completion even if its owner is gone, an
// exported command (which, with a fault injector armed, also costs a draw), a
// stall that has run out — and what a sweep can find by the clock alone bounds
// the spin: the idle budget running out, a stalled attachment's wedge expiring.
func (s *spinner) poll(rounds int) sim.Time {
	f := s.f
	f.Polls += uint64(rounds)
	now, until := f.env.Now(), s.parkAt
	for _, att := range f.atts {
		switch att.state {
		case AttDead:
			continue
		case AttWedged:
			if att.wedgeForever {
				continue
			}
			if now < att.wedgeUntil {
				until = min(until, att.wedgeUntil)
				continue
			}
			return 0 // the stall has run out: the sweep turns it healthy
		}
		if len(att.deferred) > 0 || len(att.backlog) > 0 || att.nq.Pending() > 0 ||
			att.ring != nil && att.ring.Pending() > 0 {
			return 0
		}
	}
	return until
}
