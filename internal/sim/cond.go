package sim

// waitTok represents one wait on a Cond. A token fires exactly once — either
// by a signal or by a timeout — which makes Signal/WaitTimeout races
// impossible. Tokens are pooled on the environment and recycled when the
// last of their references — waiter-list slot, timer event, the process that
// reads the result — is dropped (Env.unref).
type waitTok struct {
	fn       func() // the waiter's continuation at a signal
	expire   func() // a timed waiter's continuation at the timeout (nil: no timer)
	refs     uint8  // live references
	fired    bool
	signaled bool
	val      any // optional payload handed over by Signal
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

// Cond is a FIFO condition variable for processes and continuations. Unlike
// sync.Cond there is no associated lock: only one party runs at a time, so
// checking the predicate and calling Wait is already atomic.
type Cond struct {
	env     *Env
	waiters []*waitTok
	head    int // index of the first live waiter; storage before it is consumed
}

// NewCond returns a condition bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// WaitFunc is Wait for code that has no process to park (see
// Resource.AcquireFunc): fn joins the FIFO waiter list, and the Signal or
// Broadcast that reaches it schedules it as a callback event at that
// instant. fn runs in scheduler context and must not block; the signal's
// value is dropped.
func (c *Cond) WaitFunc(fn func()) {
	c.join(fn, 1)
}

// join queues a waiter whose token holds refs references, the waiter-list
// slot among them. When the list's storage is full, the slots of timed
// waiters that expired go first: only a Signal or Broadcast pops them
// otherwise, and a condition that only ever times out would keep them all.
func (c *Cond) join(fn func(), refs uint8) *waitTok {
	if len(c.waiters) == cap(c.waiters) {
		n := c.head
		for _, tok := range c.waiters[c.head:] {
			if tok.fired {
				c.env.unref(tok)
				continue
			}
			c.waiters[n] = tok
			n++
		}
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
	}
	tok := takeFree(&c.env.tokFree)
	if tok == nil {
		tok = new(waitTok)
	}
	tok.fn, tok.refs = fn, refs
	c.waiters = enqueue(c.waiters, &c.head, tok)
	return tok
}

// WaitTimeoutFunc is WaitTimeout for code that has no process to park: fn
// joins the waiter list as a WaitFunc waiter does, and a timeout is armed.
// Whichever comes first schedules fn as a callback event — at the signal, or
// at the timeout as the second step of a two-step wake: the timer event
// fires the token, then queues fn — and fn learns which. fn runs in
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
	c.joinTimed(d, w.signaled, w.expired, 2) // the waiter slot and the timer event
}

// joinTimed queues a waiter that runs fn at a signal and expire when d
// elapses first, its token holding refs references: the waiter-list slot and
// the timer event among them. If the signal wins, the timer event is lazily
// cancelled.
func (c *Cond) joinTimed(d Duration, fn, expire func(), refs uint8) *waitTok {
	tok := c.join(fn, refs)
	tok.expire = expire
	c.env.push(c.env.now.Add(d), payload{tok: tok})
	return tok
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

// Signal wakes the longest waiter, handing it val. It reports
// whether a waiter was woken. Safe from both process and callback context.
func (c *Cond) Signal(val any) bool {
	tok := c.pop()
	if tok == nil {
		return false
	}
	c.fire(tok, val)
	return true
}

// Broadcast wakes every waiter.
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
// its continuation. The waiter slot is gone (pop took it), so the token
// drops that reference here.
func (c *Cond) fire(tok *waitTok, val any) {
	tok.fired = true
	tok.signaled = true
	tok.val = val
	if tok.expire != nil {
		c.env.q.dead++ // the timer event, reclaimed lazily
	}
	c.env.At(c.env.now, tok.fn)
	c.env.unref(tok)
}
