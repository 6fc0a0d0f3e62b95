// Package sim implements a deterministic, process-based discrete-event
// simulation (DES) kernel. It is the time substrate for the whole NVMetro
// reproduction: every host thread, vCPU, device and fabric link runs as a
// simulated process on a virtual clock.
//
// The model follows SimPy-style process interaction: processes are
// coroutines (iter.Pull), and the scheduler hands out a single run token,
// so exactly one process executes at any instant. All cross-process
// interaction goes through sim primitives (Sleep, Cond, Resource, events),
// which makes simulations deterministic given a seed and free of data races
// by construction.
//
// The scheduler is built for throughput: an event's payload is written once
// into a slab and read once at dispatch, and the tiered timer wheel moves
// only pointer-free keys (see queue.go), so Sleep/At/After are
// allocation-free in steady state; same-instant callback batches dispatch in
// a tight loop without touching the run token; a parking process runs the dispatch loop
// on its own stack and keeps running when its own timer is the next event;
// and a real hand-off is the parking coroutine yielding the next process to
// a trampoline in Run, which enters it — two runtime coroutine switches,
// half the price of the one channel rendezvous through the Go scheduler
// they replaced. Code that only waits has no process at all: a component
// that queues on resources (Resource.AcquireFunc), waits on a condition
// (Cond.WaitFunc) or charges a CPU thread (Thread.ExecFunc) from a leaf runs
// as continuations in scheduler context, each costing the event its process
// form would cost and no switch. Event dispatch order is the (t, seq) total
// order of the original heap scheduler (a push reusing a reserved seq at the
// current instant runs after the instant's earlier events, see queue.go), so
// traces are bit-identical.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
)

// growStack forces one stack growth at worker-coroutine birth, while the
// stack is still empty and the copy is nearly free. Because the parking
// process itself runs the dispatch loop, scheduler frames stack on top of
// arbitrarily deep user code; without the pre-grow, every process pays
// several stack doublings — each copying a deep live stack — as soon as it
// parks (runtime.copystack showed up at ~16% of a full fig5 sweep). Workers
// are pooled (see workerLoop), so the cost is paid once per pool slot, not
// once per process.
//
//go:noinline
func growStack() {
	var pad [8 << 10]byte
	runtime.KeepAlive(&pad)
}

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

// ErrStopped is the panic value delivered to a parked process when the
// environment is closed. Process bodies should not recover from it.
var ErrStopped = errors.New("sim: environment closed")

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
	procs     []*Proc // every spawned, unfinished process (Close needs them)
	procsDead int
	live      int
	closed    bool
	fail      any // panic value captured from a process or callback
	stopped   bool
	rng       *rand.Rand
	tokFree   []*waitTok   // free list for wait tokens
	execFree  []*execState // free list for Thread.ExecFunc states
	spinFree  []*spinFunc  // free list for Thread.SpinFunc states
	timedFree []*timedWait // free list for Cond.WaitTimeoutFunc states
	pool      []*worker    // idle worker coroutines awaiting a process
	procFree  []*Proc      // retired Procs with no queue references, reusable
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

// Live reports the number of processes that have been spawned and have not
// yet finished.
func (e *Env) Live() int { return e.live }

// QueueLen reports the number of queued events, including lazily-cancelled
// ones not yet reclaimed (see QueueDead).
func (e *Env) QueueLen() int { return e.q.size }

// Dispatched reports how many events the scheduler has popped since the
// environment was created (lazily-cancelled ones included): the host-side
// work a simulation costs, for events-per-operation benchmarks.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// Switches reports how many times the run token was handed to a process
// parked on another coroutine — a yield to the trampoline in Run and its
// next into the target, two runtime coroutine switches. Fused self-resumes
// (a process whose own wake is the next event keeps running) and callback
// events cost none and are not counted.
func (e *Env) Switches() uint64 { return e.switches }

// Spawns reports how many processes Go has started since the environment
// was created.
func (e *Env) Spawns() uint64 { return e.spawns }

// QueueDead reports the number of queued events known to be dead: cancelled
// timeouts and wakes for finished processes. They are skipped at dispatch
// and compacted away once they exceed half the queue.
func (e *Env) QueueDead() int { return e.q.dead }

func (e *Env) push(t Time, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	if p != nil {
		p.wakes++
	}
	e.q.push(e.now, t, e.seq, payload{p: p, fn: fn})
	e.maybeCompact()
}

// pushTimer schedules a cancellable timeout: when it pops unfired, it fires
// tok and re-queues a wake for tok.p, or its expire continuation (the
// two-step wake preserves the exact event ordering of the callback-based
// implementation it replaces). If tok is fired early by a signal, the queued
// event is lazily cancelled.
func (e *Env) pushTimer(t Time, tok *waitTok) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, e.now))
	}
	e.seq++
	tok.hasTimer = true
	if tok.p != nil {
		tok.p.wakes++
	}
	e.q.push(e.now, t, e.seq, payload{p: tok.p, tok: tok})
	e.maybeCompact()
}

// cancelTimer accounts for a pending timeout whose token just fired by
// signal: the queued event is now dead and waits for lazy reclamation.
func (e *Env) cancelTimer(tok *waitTok) {
	if tok.p != nil {
		tok.p.wakes--
	}
	e.q.dead++
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
	e.push(t, nil, fn)
}

// After schedules fn to run d from now (see At).
func (e *Env) After(d Duration, fn func()) {
	e.push(e.now.Add(d), nil, fn)
}

// Proc is a simulated process. Its methods must be called from the process's
// own coroutine while it holds the run token.
//
// A Proc is a fresh identity per Go call — queued wakes reference it, and a
// stale wake for a finished Proc must stay dead — but the coroutine running
// it is a pooled worker whose (already grown) stack is recycled across
// processes.
type Proc struct {
	env   *Env
	name  string
	w     *worker
	idx   int // position in env.procs
	done  bool
	wakes int       // queued events targeting this process
	spin  spinState // set while parked in Thread.Spin
}

// worker is one pooled process coroutine (iter.Pull over workerLoop). The
// trampoline in runLoop enters it with next; the coroutine leaves with
// yield, naming the process the run token goes to (nil: the run is over).
// While idle it sits in yield with p == nil; Go assigns p/body and the
// trampoline's next call starts the body. Only the holder of the run token
// touches p and body, and a coroutine switch orders the two sides (for the
// race detector too), so the hand-over is race-free.
type worker struct {
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	p     *Proc
	body  func(*Proc)
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process. The body starts at the current virtual time,
// after the currently running process yields. Safe to call from process
// context, callback context, or before Run.
//
// The process runs on a pooled worker coroutine when one is idle, so
// spawn-heavy workloads (one process per request) pay neither a coroutine
// launch nor the one-time stack pre-grow per process.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go after Close")
	}
	e.spawns++
	w := takeFree(&e.pool)
	if w == nil {
		w = &worker{}
		w.next, w.stop = iter.Pull(e.workerLoop(w))
	}
	p := takeFree(&e.procFree)
	if p == nil {
		p = &Proc{env: e, name: name, w: w}
	} else {
		p.name, p.w, p.done, p.wakes, p.spin = name, w, false, 0, spinState{}
	}
	w.p = p
	w.body = body
	e.live++
	e.addProc(p)
	e.push(e.now, p, nil)
	return p
}

// addProc registers p for Close, compacting finished entries when they
// dominate the list.
func (e *Env) addProc(p *Proc) {
	if e.procsDead >= 64 && e.procsDead*2 > len(e.procs) {
		w := 0
		for _, q := range e.procs {
			if !q.done {
				e.procs[w] = q
				q.idx = w
				w++
			}
		}
		for z := w; z < len(e.procs); z++ {
			e.procs[z] = nil
		}
		e.procs = e.procs[:w]
		e.procsDead = 0
	}
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
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

// workerLoop is the body of a pooled process coroutine. Each iteration runs
// one process to completion, retires it, and keeps the simulation moving:
// the worker returns itself to the pool, continues the dispatch loop on its
// own stack, and yields the next runnable process to the trampoline (nil
// when the queue drains or the run stops). The coroutine ends on Close or a
// failure; otherwise it sits in yield awaiting the next assignment.
func (e *Env) workerLoop(w *worker) iter.Seq[*Proc] {
	return func(yield func(*Proc) bool) {
		w.yield = yield
		growStack()
		for {
			p, body := w.p, w.body
			w.p, w.body = nil, nil
			e.retire(p, e.execBody(p, body))
			if e.closed || e.fail != nil {
				return
			}
			// Pool before dispatching so a callback that spawns can reuse
			// this worker immediately.
			e.pool = append(e.pool, w)
			next := e.dispatchSafe()
			if next != nil && next.w == w {
				// A dispatch callback assigned our own next process: run it
				// inline, no switch.
				e.cur = next
				continue
			}
			if !yield(next) {
				return // Close; it retires an assigned process unrun
			}
		}
	}
}

// execBody runs a process body, returning the panic value that terminated it
// (nil for a clean return, errStopSentinel when Close unwound it in park).
func (e *Env) execBody(p *Proc, body func(*Proc)) (r any) {
	defer func() { r = recover() }()
	body(p)
	return nil
}

// retire marks a process finished and records a non-sentinel panic for the
// Run caller to re-raise, so test output points at the process body. A
// process with no outstanding wakes has no queue or token references left,
// so its Proc can be recycled by a later Go — except during Close, whose
// sweep over e.procs must not see entries move.
func (e *Env) retire(p *Proc, r any) {
	p.done = true
	e.live--
	e.cur = nil
	e.q.dead += p.wakes // any leftover wakes for p are now dead
	if r != nil && r != errStopSentinel {
		e.fail = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	if p.wakes == 0 && !e.closed {
		e.removeProc(p)
		e.procFree = append(e.procFree, p)
	} else {
		e.procsDead++
	}
}

var errStopSentinel = errors.New("sim: stop")

// park blocks the calling process until the scheduler resumes it. Callers
// must have arranged a wake-up (event or condition) beforehand. The parking
// process itself runs the dispatch loop: if its own wake-up is the next
// process event, it simply keeps running (no switch); otherwise it yields
// the next runnable process to the trampoline in runLoop, which enters it.
func (p *Proc) park() {
	e := p.env
	next := e.dispatchSafe()
	if next == p {
		e.cur = p
		return // fused self-resume: no coroutine switch
	}
	if !p.w.yield(next) {
		panic(errStopSentinel)
	}
}

// Sleep suspends the process for d virtual time. Negative or zero d yields
// the token and resumes at the current time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.push(p.env.now.Add(d), p, nil)
	p.park()
}

// Yield gives other runnable processes scheduled at the current instant a
// chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch pops and runs events in (t, seq) order until a process must be
// resumed or the queue is exhausted up to the run limit. Callback events and
// timer firings run inline on the caller's stack, so same-instant callback
// batches never touch the run token. Returns the process to hand
// the run token to (which may be the caller itself — it should just keep
// running), or nil when the run is over (drained, limit, or Stop).
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
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if tok := ev.tok; tok != nil {
			if ev.p != nil {
				ev.p.wakes--
			}
			if tok.fired {
				q.dead-- // cancelled timeout, lazily reclaimed
			} else {
				tok.fired = true
				e.push(e.now, ev.p, tok.expire) // timeout: two-step wake (see pushTimer)
			}
			e.unref(tok)
			continue
		}
		p := ev.p
		p.wakes--
		if p.done {
			q.dead-- // stale wake for a finished process
			continue
		}
		if p.spin.th != nil && e.respin(p) {
			continue // an idle poll round: stays in scheduler context
		}
		return p
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
// next one to run, and the loop enters it. A hand-off is therefore two
// coroutine switches and never passes through the Go scheduler. A panic in a
// process or callback is re-raised here; runtime.Goexit in a process (a
// test's t.Fatal) ends the Run caller's goroutine the same way.
func (e *Env) runLoop() Time {
	for p := e.dispatch(); p != nil; {
		e.cur = p
		e.switches++
		p, _ = p.w.next()
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
		// Every unfinished process sits in a yield — parked, or assigned to
		// a pooled worker — or on a coroutine that has not started. stop
		// unwinds a parked body; the other two never ran one (nor did a
		// process whose coroutine runtime.Goexit ended), so they are
		// retired here.
		p.w.stop()
		if !p.done {
			p.w.p, p.w.body = nil, nil
			e.retire(p, nil)
		}
	}
	for _, w := range e.pool {
		w.stop()
	}
	e.pool = nil
	e.procs = nil
	e.procsDead = 0
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

// getTok takes a wait token from the free list (or allocates one).
func (e *Env) getTok(p *Proc) *waitTok {
	if tok := takeFree(&e.tokFree); tok != nil {
		*tok = waitTok{p: p}
		return tok
	}
	return &waitTok{p: p}
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

// putTok recycles a process's consumed wait token. Tokens that armed a
// timeout are never recycled: the queued timer event (and possibly a stale
// waiter-list slot) may still reference them.
func (e *Env) putTok(tok *waitTok) {
	if tok.hasTimer {
		return
	}
	tok.val, tok.fn = nil, nil
	e.tokFree = append(e.tokFree, tok)
}

// unref drops one reference to a continuation's token — its waiter-list slot,
// or its timer event popped or compacted away — and recycles the token with
// the last one. A continuation keeps no reference to its token, so nothing
// else can see it. A process's token is left to putTok: the process reads it
// after its wake.
func (e *Env) unref(tok *waitTok) {
	if tok.p != nil {
		return
	}
	if tok.refs--; tok.refs == 0 {
		tok.val, tok.fn, tok.expire = nil, nil, nil
		e.tokFree = append(e.tokFree, tok)
	}
}
