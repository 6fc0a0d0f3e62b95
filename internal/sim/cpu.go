package sim

import "sort"

// core is a simulated CPU core: unit-capacity FIFO resource plus per-tag
// busy-time accounting. Tags identify who consumed the time (e.g. "guest",
// "router", "uif", "kernel"), feeding the whole-system CPU figures.
type core struct {
	env  *Env
	res  *Resource
	busy map[string]*Duration
}

// slot returns the core's busy-time accumulator for tag, creating it on
// first use. Threads resolve their slot once, so the per-Exec accounting is
// a pointer add rather than a string-keyed map update.
func (c *core) slot(tag string) *Duration {
	b := c.busy[tag]
	if b == nil {
		b = new(Duration)
		c.busy[tag] = b
	}
	return b
}

// CPU is a set of cores with round-robin assignment for thread placement.
type CPU struct {
	env   *Env
	cores []*core
	next  int
}

// NewCPU creates n cores.
func NewCPU(env *Env, n int) *CPU {
	c := &CPU{env: env}
	for range n {
		c.cores = append(c.cores, &core{env: env, res: NewResource(env, 1), busy: make(map[string]*Duration)})
	}
	return c
}

// NumCores returns the core count.
func (c *CPU) NumCores() int { return len(c.cores) }

// nextCore returns cores round-robin; used to spread threads.
func (c *CPU) nextCore() *core {
	core := c.cores[c.next%len(c.cores)]
	c.next++
	return core
}

// CPUSnapshot captures per-tag busy time at one instant.
type CPUSnapshot struct {
	at   Time
	busy map[string]Duration
}

// Snapshot captures the current accounting state.
func (c *CPU) Snapshot() CPUSnapshot {
	s := CPUSnapshot{at: c.env.now, busy: make(map[string]Duration)}
	for _, core := range c.cores {
		for tag, d := range core.busy {
			s.busy[tag] += *d
		}
	}
	return s
}

// CPUUsage is busy time per tag over a measurement window.
type CPUUsage struct {
	Window Duration
	ByTag  map[string]Duration
}

// Total returns the summed busy time across tags.
func (u CPUUsage) Total() Duration {
	var t Duration
	for _, d := range u.ByTag {
		t += d
	}
	return t
}

// Cores returns average busy cores over the window (total busy / window).
func (u CPUUsage) Cores() float64 {
	if u.Window <= 0 {
		return 0
	}
	return float64(u.Total()) / float64(u.Window)
}

// Tags returns the tag names sorted for stable output.
func (u CPUUsage) Tags() []string {
	tags := make([]string, 0, len(u.ByTag))
	for t := range u.ByTag {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// Since returns usage accumulated since the snapshot.
func (c *CPU) Since(s CPUSnapshot) CPUUsage {
	cur := c.Snapshot()
	u := CPUUsage{Window: cur.at.Sub(s.at), ByTag: make(map[string]Duration)}
	for tag, d := range cur.busy {
		if delta := d - s.busy[tag]; delta > 0 {
			u.ByTag[tag] = delta
		}
	}
	return u
}

// Thread is a simulated OS thread (or vCPU) pinned to one core with a fixed
// accounting tag. Create threads with NewThread or ThreadOn: they resolve the
// core's accounting slot for the tag once.
type Thread struct {
	Core *core
	busy *Duration // Core's accumulator for the thread's tag
}

// NewThread pins a new thread on the next core round-robin.
func (c *CPU) NewThread(tag string) *Thread {
	return newThread(c.nextCore(), tag)
}

// ThreadOn pins a thread to a specific core.
func (c *CPU) ThreadOn(i int, tag string) *Thread {
	return newThread(c.cores[i], tag)
}

func newThread(core *core, tag string) *Thread {
	return &Thread{Core: core, busy: core.slot(tag)}
}

// ExecFunc runs d of work on the thread's core, accounted under the thread
// tag, for code that has no process to park: an interrupt handler is a leaf
// — it waits on one condition, charges CPU and calls non-blocking completion
// callbacks — so it is a continuation, not a stack. ExecFunc queues for the
// core FIFO (Resource.AcquireFunc), holds it for d (negative d clamped like
// Sleep), releases it, credits d to the thread's tag and runs then in
// scheduler context. It costs one callback event for the grant when the core
// was busy and one for the end of the hold. Steady state allocates nothing:
// the state is pooled on the environment and its two continuations are
// bound once.
func (t *Thread) ExecFunc(d Duration, then func()) {
	e := t.Core.env
	x := takeFree(&e.execFree)
	if x == nil {
		x = &execState{}
		x.granted, x.expired = x.hold, x.finish
	}
	x.th, x.d, x.then = t, d, then
	if t.Core.res.AcquireFunc(x.granted) {
		x.hold()
	}
}

// execState is one ExecFunc in flight.
type execState struct {
	th               *Thread
	d                Duration
	then             func()
	granted, expired func() // hold and finish, bound once
}

// hold runs owning the core: on the spot, or as the grant event.
func (x *execState) hold() {
	x.th.Core.env.After(max(x.d, 0), x.expired)
}

// finish is the end of the hold: release, credit, then the caller's
// continuation.
func (x *execState) finish() {
	t, then := x.th, x.then
	t.Core.res.Release()
	*t.busy += x.d
	x.th, x.then = nil, nil
	e := t.Core.env
	e.execFree = append(e.execFree, x)
	then()
}

// SpinFunc busy-polls on the thread's core in rounds of length round until
// the caller's poll has something to look at, for code that has no process
// to park: a reactor — the router worker — runs its poll loop as
// continuations, and its idle rounds are this. It is the loop
//
//	for { t.Exec(p, round); if poll(1) <= p.Now() { return } }
//
// run in scheduler context, where only the rounds that could look at
// something cost an event. When the spin ends it releases the core and runs
// then, in scheduler context; the caller polls for real and spins again if
// that finds nothing. Thread.Spin is this for a process, returning the rounds
// elapsed (>= 1).
//
// poll is the caller's poll reduced to looking. It reports the earliest
// instant at which the real poll could find something to do, given what is
// visible now: any time at or before Now (zero will do) for "look now", a
// later time when only the clock will produce it (a deadline, the end of a
// budget), Never when only another event can. It is called on entry — where
// "look now" buys the single round Exec would run, which is the right answer
// when the caller's own empty poll took virtual time and something arrived
// behind its back — and again at every round boundary reached, so a bound
// another event moves mid-spin is honoured. It runs in scheduler context
// (entry excepted) and must change nothing another party can observe:
// no event, no random draw, no blocking primitive. It may say "look" when the
// real poll would then find nothing (that costs what every round used to
// cost) but never the reverse: whenever the real poll would take an effect,
// or charge virtual time, poll must say "look".
//
// rounds is how many rounds have completed since the previous call (0 on
// entry). A caller that keeps books per round — polls counted, an idle
// budget — credits them there, the way the spin credits CPU time, and not at
// the end: a spin outlives the instants at which other parties and RunUntil
// limits read those books.
//
// Three rules keep every other party's view — virtual times, per-tag CPU at
// every RunUntil limit, the (t, seq) order of all events — that of the
// per-round loop. Each boundary reached costs exactly the one event the
// loop's next Exec would push, pushed at the same point of the dispatch
// order; what is elided are boundaries nothing can observe: the boundary is
// set at the last one strictly before the horizon — the earliest of the next
// queued event, the limit of the run in progress and poll's answer — so the
// round that crosses the horizon is scheduled on its own, as the loop would
// schedule it, and same-instant ties dispatch in the same order. A waiter
// queued for the core gets it at the next boundary: a non-empty wait list
// ends the spin, whose release hands the core over. And a spin that itself
// had to queue for the core starts with a single round, because the caller's
// empty poll is stale by the time the core is granted. The state is pooled
// on the environment with its continuations bound once: no allocation in
// steady state.
func (t *Thread) SpinFunc(round Duration, poll func(rounds int) Time, then func()) {
	e := t.Core.env
	x := takeFree(&e.spinFree)
	if x == nil {
		x = &spinFunc{}
		x.granted, x.reached = x.grant, x.boundary
	}
	x.th, x.round, x.poll, x.then = t, round, poll, then
	if t.Core.res.AcquireFunc(x.granted) {
		x.arm(e.spinRounds(round, poll(0)))
	}
}

// spinFunc is one SpinFunc in flight.
type spinFunc struct {
	th               *Thread
	round            Duration
	poll             func(rounds int) Time
	armed            int // rounds the queued boundary event covers
	rounds           int // rounds completed
	then             func()
	granted, reached func() // grant and boundary, bound once
}

// grant starts a spin that had to queue for the core: one round.
func (x *spinFunc) grant() { x.arm(1) }

// arm queues the boundary at the end of the next step of rounds: the single
// push the per-round loop's next Exec would have made, at the same dispatch
// position.
func (x *spinFunc) arm(rounds int) {
	x.armed = rounds
	x.th.Core.env.After(Duration(rounds)*x.round, x.reached)
}

// boundary is a round boundary reached. It credits the rounds of the step
// just ended to the thread's tag and hands them to poll; the spin goes on
// unless poll has something to look at or a waiter takes the core, and then
// it ends: the core is released and then runs, the rounds left on the
// environment for Thread.Spin.
func (x *spinFunc) boundary() {
	t := x.th
	e := t.Core.env
	*t.busy += Duration(x.armed) * x.round
	x.rounds += x.armed
	until := x.poll(x.armed)
	if res := t.Core.res; until > e.now && res.head == len(res.q) {
		x.arm(e.spinRounds(x.round, until))
		return
	}
	then := x.then
	e.spun = x.rounds
	x.th, x.poll, x.then, x.rounds = nil, nil, nil, 0
	e.spinFree = append(e.spinFree, x)
	t.Core.res.Release()
	then()
}

// spinRounds sizes one step of a spin from a boundary at the current instant:
// the number of whole rounds that end strictly before the horizon, at least 1.
func (e *Env) spinRounds(round Duration, until Time) int {
	if round <= 0 {
		return 1 // a zero-cost model: every round is a yield at this instant
	}
	h := until
	if e.limit < h {
		h = e.limit
	}
	if next, ok := e.q.peek(); ok && next < h {
		h = next
	}
	if h == Never {
		panic("sim: Spin with no queued event, run limit or poll bound would never return")
	}
	// The division is skipped when fewer than two rounds fit (a horizon
	// closer than that is the common case in a busy system).
	if span := h - 1 - e.now; span >= 2*Time(round) {
		return int(span / Time(round))
	}
	return 1
}
