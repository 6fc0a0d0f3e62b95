package sim

// Blocking forms. A process blocks by calling a primitive's continuation
// form with its own continuation (cont) and parking: it resumes as the rest
// of the callback event that calls the continuation, so each blocking form
// costs exactly the events of its continuation form, and a component and
// its process-based reference (kept beside their lockstep tests) see the
// same order of events. They must be called from the process's own
// coroutine.

// Sleep suspends the process for d virtual time. Negative or zero d yields
// the token and resumes at the current time.
func (p *Proc) Sleep(d Duration) {
	p.env.After(max(d, 0), p.cont())
	p.park()
}

// Yield gives other runnable processes scheduled at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// Exec runs d of work on the thread's core, accounted under the thread tag:
// ExecFunc, with p waiting FIFO if the core is busy.
func (t *Thread) Exec(p *Proc, d Duration) {
	t.ExecFunc(d, p.cont())
	p.park()
}

// Spin is SpinFunc for a process: it returns the rounds elapsed (>= 1) when
// the spin ends, and the caller polls for real and calls Spin again if that
// finds nothing.
func (t *Thread) Spin(p *Proc, round Duration, poll func(rounds int) Time) (rounds int) {
	t.SpinFunc(round, poll, p.cont())
	p.park()
	return p.env.spun
}

// Acquire blocks the calling process until a unit is available. Units are
// granted in FIFO order; releases hand ownership directly to the head
// waiter, so late arrivals cannot barge.
func (r *Resource) Acquire() {
	if r.tryAcquire() {
		return
	}
	p := r.env.current()
	r.AcquireFunc(p.cont())
	p.park()
}

// Wait parks the calling process until Signal or Broadcast wakes it.
// It returns the value passed to Signal (nil for Broadcast).
func (c *Cond) Wait() any {
	p := c.env.current()
	tok := c.join(p.cont(), 2) // the waiter slot and p, which reads the value
	p.park()
	val := tok.val
	c.env.unref(tok)
	return val
}

// WaitTimeout parks the calling process until signaled or until d elapses.
// It reports whether the wake-up was a signal, and the signal value if so.
func (c *Cond) WaitTimeout(d Duration) (any, bool) {
	p := c.env.current()
	cont := p.cont()
	tok := c.joinTimed(d, cont, cont, 3) // slot, timer event and p
	p.park()
	val, signaled := tok.val, tok.signaled
	c.env.unref(tok)
	return val, signaled
}

// Await is how a process calls a component that exists only as
// continuations: it runs start with a continuation and parks p until start's
// work calls it. The call must be the last act of the callback event that
// makes it (or come before start returns): p then resumes as the rest of that
// event, with no event of its own, as every blocking form resumes.
func (p *Proc) Await(start func(then func())) {
	start(p.cont())
	if p.awaiting {
		p.park()
	}
}

// cont arms and returns p's continuation: called as the last act of a
// callback event, it resumes p as the rest of that event.
func (p *Proc) cont() func() {
	p.awaiting = true
	return p.resume
}

// resumed is a process's continuation.
func (p *Proc) resumed() {
	if !p.awaiting {
		panic("sim: process continuation called twice")
	}
	p.awaiting = false
	e := p.env
	if e.cur == p {
		return // Await's start finished before returning: p never parked
	}
	if e.cur != nil || e.handoff != nil {
		panic("sim: process continuation called outside a callback event")
	}
	e.handoff = p
}
