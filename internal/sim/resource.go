package sim

// Resource is a counted resource with FIFO admission, in the style of a
// semaphore. It models anything with finite concurrent capacity: CPU cores,
// device channels, a serialized bus.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	q     []func() // waiters' continuations, FIFO
	head  int      // index of the first live waiter; storage before it is consumed
}

// NewResource returns a resource with the given capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, cap: capacity}
}

// tryAcquire acquires a unit without blocking, reporting success.
func (r *Resource) tryAcquire() bool {
	if r.inUse < r.cap && r.head == len(r.q) {
		r.inUse++
		return true
	}
	return false
}

// AcquireFunc is Acquire for code that has no process to park: a component
// that never runs on a CPU thread and only queues on resources and timers
// (a device command) is a continuation, not a stack. It reports true when a
// unit was taken on the spot. Otherwise fn joins the FIFO waiter list and
// Release runs it as a callback event at the hand-over instant, already
// owning the unit. fn runs in scheduler context and must not block.
func (r *Resource) AcquireFunc(fn func()) bool {
	if r.tryAcquire() {
		return true
	}
	r.q = enqueue(r.q, &r.head, fn)
	return false
}

// Release returns a unit, handing it to the head waiter if any: the
// waiter's continuation runs as a callback event at this instant, already
// owning the unit.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if r.head == len(r.q) {
		r.inUse--
		return
	}
	fn := r.q[r.head]
	r.q[r.head] = nil
	if r.head++; r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
	r.env.At(r.env.now, fn)
}
