package sim

// waitTok represents one parked wait. A token fires exactly once — either by
// a signal or by a timeout — which makes Signal/WaitTimeout races impossible.
// Tokens are pooled on the environment: a process recycles its token after
// resuming, unless a timeout event may still reference it; a continuation's
// token is recycled when the last of its references — waiter-list slot,
// timer event — is dropped (Env.unref).
type waitTok struct {
	p        *Proc  // parked process, or
	fn       func() // continuation of an AcquireFunc, WaitFunc or WaitTimeoutFunc waiter
	expire   func() // a WaitTimeoutFunc waiter's continuation at the timeout
	refs     uint8  // a continuation token's live references
	fired    bool
	signaled bool
	hasTimer bool // a queued timeout event references this token
	val      any  // optional payload handed over by Signal
}

// funcTok takes a token for a continuation waiter with refs references.
func (e *Env) funcTok(fn func(), refs uint8) *waitTok {
	tok := e.getTok(nil)
	tok.fn, tok.refs = fn, refs
	return tok
}

// enqueue appends v to a head-indexed list (entries before *head are
// consumed): the waiter lists and the deadline queue. A list that never
// drains — a saturated resource always has someone waiting — must not keep
// its consumed prefix forever: when the storage is full and at least half of
// it is consumed, the live entries slide to the front instead of the storage
// growing, so it stays within twice the deepest backlog at amortized
// constant cost.
func enqueue[T any](q []T, head *int, v T) []T {
	if h := *head; h > 0 && len(q) == cap(q) && h >= len(q)/2 {
		n := copy(q, q[h:])
		clear(q[n:])
		q, *head = q[:n], 0
	}
	return append(q, v)
}

// Cond is a FIFO condition variable for simulated processes. Unlike
// sync.Cond there is no associated lock: only one process runs at a time,
// so checking the predicate and calling Wait is already atomic.
type Cond struct {
	env     *Env
	waiters []*waitTok
	head    int // index of the first live waiter; storage before it is consumed
}

// NewCond returns a condition bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks the calling process until Signal or Broadcast wakes it.
// It returns the value passed to Signal (nil for Broadcast).
func (c *Cond) Wait() any {
	p := c.env.current()
	tok := c.env.getTok(p)
	c.waiters = enqueue(c.waiters, &c.head, tok)
	p.park()
	val := tok.val
	c.env.putTok(tok) // fired tokens are popped from waiters before the wake
	return val
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

// WaitFunc is Wait for code that has no process to park (see
// Resource.AcquireFunc): fn joins the same FIFO waiter list as parked
// processes, and the Signal or Broadcast that reaches it schedules it as a
// callback event at that instant — the event that would have woken the
// process. fn runs in scheduler context and must not block; the signal's
// value is dropped.
func (c *Cond) WaitFunc(fn func()) {
	c.waiters = enqueue(c.waiters, &c.head, c.env.funcTok(fn, 1))
}

// WaitTimeoutFunc is WaitTimeout for code that has no process to park: fn
// joins the waiter list as a WaitFunc waiter does, and a timeout is armed as
// WaitTimeout arms it. Whichever comes first schedules fn as a callback event
// where the process's wake would have been queued — at the signal, or as the
// second step of pushTimer's two-step wake — and fn learns which. fn runs in
// scheduler context and must not block; the signal's value is dropped. The
// state is pooled on the environment and its token is recycled once both its
// waiter slot and its timer event are gone: no allocation in steady state.
func (c *Cond) WaitTimeoutFunc(d Duration, fn func(signaled bool)) {
	e := c.env
	w := takeFree(&e.timedFree)
	if w == nil {
		w = &timedWait{env: e}
		w.signaled, w.expired = w.signal, w.expire
	}
	w.fn = fn
	tok := e.funcTok(w.signaled, 2) // the waiter slot and the timer event
	tok.expire = w.expired
	c.waiters = enqueue(c.waiters, &c.head, tok)
	e.pushTimer(e.now.Add(d), tok)
}

// timedWait is one WaitTimeoutFunc in flight. It is recycled when its
// continuation runs; the token, which outlives it, never calls it again.
type timedWait struct {
	env               *Env
	fn                func(signaled bool)
	signaled, expired func() // signal and expire, bound once
}

func (w *timedWait) signal() { w.done(true) }
func (w *timedWait) expire() { w.done(false) }

func (w *timedWait) done(signaled bool) {
	fn := w.fn
	w.fn = nil
	w.env.timedFree = append(w.env.timedFree, w)
	fn(signaled)
}

// pop removes and returns the first unfired waiter, or nil. Consumed slots
// advance head; the backing array is reused once the queue drains, so a
// steady wait/signal cycle never reallocates.
func (c *Cond) pop() *waitTok {
	for c.head < len(c.waiters) {
		tok := c.waiters[c.head]
		c.waiters[c.head] = nil
		c.head++
		if !tok.fired {
			if c.head == len(c.waiters) {
				c.waiters = c.waiters[:0]
				c.head = 0
			}
			return tok
		}
		c.env.unref(tok) // a timed-out waiter's slot
	}
	c.waiters = c.waiters[:0]
	c.head = 0
	return nil
}

// Signal wakes the longest-waiting process, handing it val. It reports
// whether a waiter was woken. Safe from both process and callback context.
func (c *Cond) Signal(val any) bool {
	tok := c.pop()
	if tok == nil {
		return false
	}
	c.fire(tok, val)
	return true
}

// Broadcast wakes every parked process.
func (c *Cond) Broadcast() {
	for {
		tok := c.pop()
		if tok == nil {
			return
		}
		c.fire(tok, nil)
	}
}

// fire marks tok signaled, cancels its pending timeout if any, and queues
// the wake for its process or its continuation. A continuation's waiter slot
// is gone (pop took it), so its token drops that reference here.
func (c *Cond) fire(tok *waitTok, val any) {
	tok.fired = true
	tok.signaled = true
	tok.val = val
	if tok.hasTimer {
		c.env.cancelTimer(tok)
	}
	c.env.push(c.env.now, tok.p, tok.fn)
	c.env.unref(tok)
}
