package uif

import (
	"nvmetro/internal/bufpool"
	"nvmetro/internal/sim"
)

// PoisonReleased switches poison-on-release (bufpool.Poison) on or off and
// returns the previous setting.
func PoisonReleased(on bool) (was bool) {
	was, bufpool.Poison = bufpool.Poison, on
	return was
}

// Healthy reports whether the attachment's poll loop is alive and serving.
func (att *Attachment) Healthy() bool { return att.state == attHealthy }

// sweeper runs single sweeps on one thread for tests, allocation-free once
// made.
type sweeper struct {
	pl    *poller
	atts  [1]*Attachment
	start func(then func())
}

var sweepers = map[*sim.Thread]*sweeper{}

// Sweep runs one poll-loop sweep over att on th from process p, and reports
// whether it found work.
func (f *Framework) Sweep(p *sim.Proc, th *sim.Thread, att *Attachment) bool {
	s := sweepers[th]
	if s == nil || s.pl.f != f {
		s = &sweeper{pl: newPoller(f, th)}
		s.start = func(then func()) { s.pl.sweepOnce(s.atts[:], then) }
		sweepers[th] = s
	}
	s.atts[0] = att
	p.Await(s.start)
	return s.pl.did
}

// NewRequest is a request as a sweep takes one for an exported command's tag.
func (att *Attachment) NewRequest(tag uint16) *Request {
	r := att.takeRequest()
	r.Tag = tag
	return r
}

// Defer queues fn to run on a polling thread; safe from callback contexts.
func (att *Attachment) Defer(fn func()) { att.queue(deferred{fn: fn}) }

// sweepOnce runs a sweep over atts, and then instead of the loop.
func (p *poller) sweepOnce(atts []*Attachment, then func()) {
	p.atts, p.ai, p.phase, p.did, p.once = atts, 0, phAttach, false, then
	p.resume()
}

// Attachment returns the owning attachment.
func (r *Request) Attachment() *Attachment { return r.att }
