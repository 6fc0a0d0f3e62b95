// Package sim implements a deterministic discrete-event simulation (DES)
// kernel. It is the time substrate for the whole NVMetro reproduction: every
// host thread, vCPU, device and fabric link runs on its virtual clock, as a
// chain of continuations or as a simulated process.
//
// The kernel has one kind of work, a callback run in scheduler context, and
// one exception, a cancellable timer. A component that queues on resources
// (Resource.AcquireFunc), waits on a condition (Cond.WaitFunc,
// WaitTimeoutFunc), charges a CPU thread (Thread.ExecFunc) or polls
// (Thread.SpinFunc) is a continuation. A process — a coroutine (iter.Pull)
// holding the single run token, so exactly one runs at any instant — blocks
// by calling the same continuation form with its own continuation (see
// blocking.go): it resumes as the rest of the callback event that calls it,
// so each blocking form costs exactly the events of its continuation form.
// All interaction goes through these primitives, which makes simulations
// deterministic given a seed and free of data races by construction.
//
// The scheduler is built for throughput: an event's payload is written once
// into a slab and read once at dispatch, and the tiered timer wheel moves
// only pointer-free keys (see queue.go), so Sleep/At/After are
// allocation-free in steady state; same-instant callback batches dispatch in
// a tight loop without touching the run token; a parking process runs the
// dispatch loop on its own stack and keeps running when the next event is
// the one that resumes it; and a real hand-off is the parking coroutine
// yielding the next process to a trampoline in Run, which enters it — two
// runtime coroutine switches. Processes are rare (user code that really
// blocks, none spawned per I/O), so each is one coroutine of its own, which
// ends with its body. Event dispatch order is the (t, seq) total
// order of the original heap scheduler (a push reusing a reserved seq at the
// current instant runs after the instant's earlier events, see queue.go), so
// traces are bit-identical.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
)

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a timestamp that does not arrive: the run limit used by Run, and
// the Spin bound of a poller with no time-driven condition.
const Never = Time(1<<63 - 1)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string     { return fmt.Sprintf("%.3fus", float64(t)/1e3) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }

// Seconds returns the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Env is a simulation environment: a virtual clock plus a tiered event
// queue. It is not safe for concurrent use; all access must come from
// whoever currently holds the run token (the Run caller or the running
// simulated process).
type Env struct {
	now   Time
	seq   uint64
	q     queue
	limit Time // dispatch bound of the run in progress

	dispatched uint64 // events popped, dead ones included
	switches   uint64 // run token handed to another process's coroutine
	spawns     uint64 // Go calls

	cur       *Proc
	handoff   *Proc   // the process the running callback event resumes
	spun      int     // rounds of the spin that just ended, for Thread.Spin
	procs     []*Proc // every spawned, unfinished process (Close needs them)
	live      int
	closed    bool
	fail      any // panic value captured from a process or callback
	stopped   bool
	rng       *rand.Rand
	tokFree   []*waitTok   // free list for wait tokens
	execFree  []*execState // free list for Thread.ExecFunc states
	spinFree  []*spinFunc  // free list for Thread.SpinFunc states
	timedFree []*timedWait // free list for Cond.WaitTimeoutFunc states
}

// New creates an environment whose random source is seeded with seed.
func New(seed int64) *Env {
	return &Env{
		limit: Never,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from simulated processes (or between Run calls) so that draws
// happen in a deterministic order.
func (e *Env) Rand() *rand.Rand { return e.rng }

// push queues ev at t: a callback, or a cancellable timeout (see
// Cond.WaitTimeoutFunc).
func (e *Env) push(t Time, ev payload) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	e.q.push(e.now, t, e.seq, ev)
	e.maybeCompact()
}

// compactMinDead is the floor below which lazy deletions are never worth a
// compaction sweep, regardless of the dead/live ratio.
const compactMinDead = 64

func (e *Env) maybeCompact() {
	if e.q.dead >= compactMinDead && e.q.dead*2 > e.q.size {
		e.q.compact(e.unref)
	}
}

// At schedules fn to run in scheduler context at time t. fn must not block
// on simulation primitives; it may signal conditions and spawn processes.
func (e *Env) At(t Time, fn func()) {
	e.push(t, payload{fn: fn})
}

// After schedules fn to run d from now (see At).
func (e *Env) After(d Duration, fn func()) {
	e.At(e.now.Add(d), fn)
}

// Proc is a simulated process: one coroutine (iter.Pull) that runs the body,
// retires the process and ends. The trampoline in runLoop enters it with
// next; it leaves with yield, naming the process the run token goes to (nil:
// the run is over). Its methods must be called from the process's own
// coroutine while it holds the run token.
type Proc struct {
	env  *Env
	name string
	idx  int // position in env.procs
	done bool

	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool

	awaiting bool   // blocked, its continuation not yet called
	resume   func() // resumed, bound once
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process. The body starts at the current virtual time,
// after the currently running process yields. Safe to call from process
// context, callback context, or before Run.
//
// Each process is a coroutine of its own, started by its first resume and
// ended with its body: a spawn costs a coroutine launch, which is fine for
// the few processes a model has (user code that blocks, never one per I/O).
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go after Close")
	}
	e.spawns++
	p := &Proc{env: e, name: name, idx: len(e.procs)}
	p.resume = p.resumed
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		e.retire(p, e.execBody(p, body))
	})
	e.live++
	e.procs = append(e.procs, p)
	e.At(e.now, p.cont()) // the body starts as the rest of this event
	return p
}

// removeProc drops p from the registry by swapping in the last entry.
// Registry order only matters to Close's teardown sweep, not to simulation
// results.
func (e *Env) removeProc(p *Proc) {
	last := len(e.procs) - 1
	q := e.procs[last]
	e.procs[p.idx] = q
	q.idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// execBody runs a process body, returning the panic value that terminated it
// (nil for a clean return, errStopSentinel when Close unwound it in park).
func (e *Env) execBody(p *Proc, body func(*Proc)) (r any) {
	defer func() { r = recover() }()
	body(p)
	return nil
}

// retire marks a process finished and records a non-sentinel panic for the
// Run caller to re-raise, so test output points at the process body. It
// leaves the registry alone during Close, whose sweep over e.procs must not
// see entries move.
func (e *Env) retire(p *Proc, r any) {
	p.done = true
	e.live--
	e.cur = nil
	if r != nil && r != errStopSentinel {
		e.fail = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	if !e.closed {
		e.removeProc(p)
	}
}

var errStopSentinel = errors.New("sim: stop")

// park blocks the calling process until the event that calls its armed
// continuation (cont) resumes it. The parking process itself runs the
// dispatch loop: if it is the next process resumed, it simply keeps running
// (no switch); otherwise it yields that process to the trampoline in
// runLoop, which enters it.
func (p *Proc) park() {
	e := p.env
	next := e.dispatchSafe()
	if next == p {
		e.cur = p
		return // fused self-resume: no coroutine switch
	}
	if !p.yield(next) {
		panic(errStopSentinel)
	}
}

// dispatch pops and runs events in (t, seq) order until a callback resumes a
// process or the queue is exhausted up to the run limit. Events run inline on
// the caller's stack, so same-instant callback batches never touch the run
// token. Returns the process to hand the run token to (which may be the
// caller itself — it should just keep running), or nil when the run is over
// (drained, limit, or Stop).
func (e *Env) dispatch() *Proc {
	e.cur = nil
	q := &e.q
	for !e.stopped {
		k, ok := q.next(e.limit)
		if !ok {
			return nil
		}
		e.dispatched++
		e.now = k.t
		// The slab entry is freed before anything runs: fn may push, and
		// the push may grow the slab.
		ev := q.take(k.idx)
		if tok := ev.tok; tok != nil {
			if tok.fired {
				q.dead-- // cancelled timeout, lazily reclaimed
			} else {
				tok.fired = true
				e.At(e.now, tok.expire) // timeout: the two-step wake (see WaitTimeoutFunc)
			}
			e.unref(tok)
			continue
		}
		ev.fn()
		if p := e.handoff; p != nil {
			e.handoff = nil
			return p // the rest of this event is p's
		}
	}
	return nil
}

// dispatchSafe is dispatch for process-context callers: a panic out of a
// callback (or a bad schedule) is captured and re-raised from the Run
// caller, as it would be if the callback had run on the Run caller's stack.
func (e *Env) dispatchSafe() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fail = r
			next = nil
		}
	}()
	return e.dispatch()
}

// runLoop drives dispatch from the Run caller's goroutine and is the
// trampoline the run token bounces off: a process that parks yields the
// next one to run, and the loop enters it; a process that ends leaves the
// dispatch to the loop. A hand-off is therefore two coroutine switches and
// never passes through the Go scheduler. A panic in a process or callback is
// re-raised here; runtime.Goexit in a process (a test's t.Fatal) ends the
// Run caller's goroutine the same way.
func (e *Env) runLoop() Time {
	for p := e.dispatch(); p != nil; {
		e.cur = p
		e.switches++
		var parked bool
		if p, parked = p.next(); !parked && e.fail == nil {
			p = e.dispatch()
		}
	}
	e.cur = nil
	if f := e.fail; f != nil {
		e.fail = nil
		panic(f)
	}
	return e.now
}

// Run processes events until the queue is empty (all processes are either
// finished or parked with no pending wake-up) or Stop is called. It returns
// the final time.
func (e *Env) Run() Time {
	e.stopped = false
	e.limit = Never
	return e.runLoop()
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to exactly t. It returns early if Stop is called.
func (e *Env) RunUntil(t Time) {
	e.stopped = false
	e.limit = t
	e.runLoop()
	if e.now < t && !e.stopped {
		e.now = t
	}
	e.limit = Never
}

// Stop makes the in-progress Run or RunUntil return after the current event.
// Callable from process or callback context.
func (e *Env) Stop() { e.stopped = true }

// Close terminates every parked process by delivering a stop panic, ending
// their coroutines. The environment must not be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		if p.done {
			continue
		}
		// Every unfinished process sits in a yield (parked) or on a
		// coroutine that has not started. stop unwinds a parked body; an
		// unstarted one never ran (nor did the rest of a process whose
		// coroutine runtime.Goexit ended), so it is retired here.
		p.stop()
		if !p.done {
			e.retire(p, nil)
		}
	}
	e.procs = nil
	e.fail = nil
	e.q.clear()
}

// current returns the running process, panicking if called outside one.
func (e *Env) current() *Proc {
	if e.cur == nil {
		panic("sim: blocking primitive called outside process context")
	}
	return e.cur
}

// takeFree pops the most recently freed entry of a free list, or returns nil
// when it is empty.
func takeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// unref drops one reference to a wait token — its waiter-list slot, its
// timer event popped or compacted away, or the process that read its result
// — and recycles the token with the last one.
func (e *Env) unref(tok *waitTok) {
	if tok.refs--; tok.refs == 0 {
		*tok = waitTok{}
		e.tokFree = append(e.tokFree, tok)
	}
}
