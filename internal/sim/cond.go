package sim

// waitTok represents one parked wait. A token fires exactly once — either by
// a signal or by a timeout — which makes Signal/WaitTimeout races impossible.
// Tokens are pooled on the environment: the waiter recycles its token after
// resuming, unless a timeout event may still reference it.
type waitTok struct {
	p        *Proc  // parked process, or
	fn       func() // continuation of a Resource.AcquireFunc waiter
	fired    bool
	signaled bool
	hasTimer bool // a queued timeout event references this token
	val      any  // optional payload handed over by Signal
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
	c.waiters = append(c.waiters, tok)
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
	c.waiters = append(c.waiters, tok)
	c.env.pushTimer(c.env.now.Add(d), tok)
	p.park()
	return tok.val, tok.signaled
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
// the wake for its process.
func (c *Cond) fire(tok *waitTok, val any) {
	tok.fired = true
	tok.signaled = true
	tok.val = val
	if tok.hasTimer {
		c.env.cancelTimer(tok)
	}
	c.env.push(c.env.now, tok.p, nil)
}
