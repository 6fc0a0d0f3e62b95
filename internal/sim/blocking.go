package sim

// Blocking forms that park a process. The model's components run as
// continuations (AcquireFunc, WaitTimeoutFunc); the process-based references
// their lockstep tests compare against still block.

// Acquire blocks the calling process until a unit is available. Units are
// granted in FIFO order; releases hand ownership directly to the head
// waiter, so late arrivals cannot barge.
func (r *Resource) Acquire() {
	if r.tryAcquire() {
		return
	}
	p := r.env.current()
	tok := r.env.getTok(p)
	r.q = enqueue(r.q, &r.head, tok)
	p.park()
	// Ownership was transferred by Release; inUse already accounts for us,
	// and Release popped the token, so it can be recycled.
	r.env.putTok(tok)
}

// WaitTimeout parks the calling process until signaled or until d elapses.
// It reports whether the wake-up was a signal, and the signal value if so.
// The timeout is a first-class timer event: if the signal wins, the queued
// event is lazily cancelled instead of surviving as a dead callback.
func (c *Cond) WaitTimeout(d Duration) (any, bool) {
	p := c.env.current()
	tok := c.env.getTok(p)
	c.waiters = enqueue(c.waiters, &c.head, tok)
	c.env.pushTimer(c.env.now.Add(d), tok)
	p.park()
	return tok.val, tok.signaled
}

// Await is how a process calls a component that exists only as
// continuations: it runs start with a continuation and parks p until start's
// work calls it. The call must be the last act of the callback event that
// makes it (or come before start returns): p then resumes as the rest of that
// event, with no event of its own, so virtual time, per-tag CPU and the
// (t, seq) order of everything p does next are those of the blocking form the
// continuation replaced — whose last wake was that event.
func (p *Proc) Await(start func(then func())) {
	if p.resume == nil {
		p.resume = p.resumed
	}
	p.awaiting = true
	start(p.resume)
	if p.awaiting {
		p.park()
	}
}

// resumed is an Await's continuation.
func (p *Proc) resumed() {
	if !p.awaiting {
		panic("sim: Await continuation called twice")
	}
	p.awaiting = false
	e := p.env
	if e.cur == p {
		return // start finished before returning: p never parked
	}
	if e.cur != nil || e.handoff != nil {
		panic("sim: Await continuation called outside a callback event")
	}
	e.handoff = p
}
