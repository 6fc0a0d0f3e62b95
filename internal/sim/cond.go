package sim

// waitTok represents one parked wait. A token fires exactly once — either by
// a signal or by a timeout — which makes Signal/WaitTimeout races impossible.
// Tokens are pooled on the environment: the waiter recycles its token after
// resuming, unless a timeout event may still reference it.
type waitTok struct {
	p        *Proc  // parked process, or
	fn       func() // continuation of an AcquireFunc or WaitFunc waiter
	fired    bool
	signaled bool
	hasTimer bool // a queued timeout event references this token
	val      any  // optional payload handed over by Signal
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
	tok := c.env.getTok(nil)
	tok.fn = fn
	c.waiters = enqueue(c.waiters, &c.head, tok)
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
// the wake for its process or its continuation. A callback waiter holds no
// reference to its token, so it is recycled here.
func (c *Cond) fire(tok *waitTok, val any) {
	tok.fired = true
	tok.signaled = true
	tok.val = val
	if tok.hasTimer {
		c.env.cancelTimer(tok)
	}
	c.env.push(c.env.now, tok.p, tok.fn)
	if tok.fn != nil {
		c.env.putTok(tok)
	}
}
