package sim

// Resource is a counted resource with FIFO admission, in the style of a
// semaphore. It models anything with finite concurrent capacity: CPU cores,
// device channels, a serialized bus.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	q     []*waitTok
	head  int // index of the first live waiter; storage before it is consumed
}

// NewResource returns a resource with the given capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, cap: capacity}
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters — processes and AcquireFunc
// callbacks — queued to acquire.
func (r *Resource) QueueLen() int {
	n := 0
	for _, t := range r.q[r.head:] {
		if !t.fired {
			n++
		}
	}
	return n
}

// TryAcquire acquires a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && r.head == len(r.q) {
		r.inUse++
		return true
	}
	return false
}

// Acquire blocks the calling process until a unit is available. Units are
// granted in FIFO order; releases hand ownership directly to the head
// waiter, so late arrivals cannot barge.
func (r *Resource) Acquire() {
	if r.TryAcquire() {
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

// AcquireFunc is Acquire for code that has no process to park: a component
// that never runs on a CPU thread and only queues on resources and timers
// (a device command) is a continuation, not a stack. It reports true when a
// unit was taken on the spot. Otherwise fn joins the same FIFO waiter list
// as parked processes and Release runs it as a callback event at the
// hand-over instant, already owning the unit. fn runs in scheduler context
// and must not block.
func (r *Resource) AcquireFunc(fn func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.q = enqueue(r.q, &r.head, r.env.funcTok(fn, 1))
	return false
}

// Release returns a unit, waking the head waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	for r.head < len(r.q) {
		tok := r.q[r.head]
		r.q[r.head] = nil
		r.head++
		if tok.fired {
			continue
		}
		if r.head == len(r.q) {
			r.q = r.q[:0]
			r.head = 0
		}
		tok.fired = true
		tok.signaled = true
		// Hand the unit over without decrementing inUse. A callback waiter's
		// token loses its one reference, the slot, here.
		r.env.push(r.env.now, tok.p, tok.fn)
		r.env.unref(tok)
		return
	}
	r.q = r.q[:0]
	r.head = 0
	r.inUse--
}

// Use acquires a unit, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire()
	p.Sleep(d)
	r.Release()
}
