package sim

import "sort"

// Core is a simulated CPU core: unit-capacity FIFO resource plus per-tag
// busy-time accounting. Tags identify who consumed the time (e.g. "guest",
// "router", "uif", "kernel"), feeding the whole-system CPU figures.
type Core struct {
	env  *Env
	ID   int
	res  *Resource
	busy map[string]*Duration
}

// slot returns the core's busy-time accumulator for tag, creating it on
// first use. Threads resolve their slot once, so the per-Exec accounting is
// a pointer add rather than a string-keyed map update.
func (c *Core) slot(tag string) *Duration {
	b := c.busy[tag]
	if b == nil {
		b = new(Duration)
		c.busy[tag] = b
	}
	return b
}

// Exec occupies the core for d and accounts the time under tag. The calling
// process waits FIFO if the core is busy.
func (c *Core) Exec(p *Proc, tag string, d Duration) {
	c.exec(p, c.slot(tag), d)
}

func (c *Core) exec(p *Proc, busy *Duration, d Duration) {
	c.res.Acquire()
	p.Sleep(d)
	c.res.Release()
	*busy += d
}

// TryExec occupies the core only if it is currently idle, reporting success.
func (c *Core) TryExec(p *Proc, tag string, d Duration) bool {
	if !c.res.TryAcquire() {
		return false
	}
	p.Sleep(d)
	c.res.Release()
	*c.slot(tag) += d
	return true
}

// Busy returns total busy time accumulated on the core.
func (c *Core) Busy() Duration {
	var t Duration
	for _, d := range c.busy {
		t += *d
	}
	return t
}

// CPU is a set of cores with round-robin assignment for thread placement.
type CPU struct {
	env   *Env
	cores []*Core
	next  int
}

// NewCPU creates n cores.
func NewCPU(env *Env, n int) *CPU {
	c := &CPU{env: env}
	for i := 0; i < n; i++ {
		c.cores = append(c.cores, &Core{env: env, ID: i, res: NewResource(env, 1), busy: make(map[string]*Duration)})
	}
	return c
}

// NumCores returns the core count.
func (c *CPU) NumCores() int { return len(c.cores) }

// Core returns core i.
func (c *CPU) Core(i int) *Core { return c.cores[i] }

// NextCore returns cores round-robin; used to spread threads.
func (c *CPU) NextCore() *Core {
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
	Core *Core
	Tag  string
	busy *Duration // Core's accumulator for Tag
}

// NewThread pins a new thread on the next core round-robin.
func (c *CPU) NewThread(tag string) *Thread {
	return newThread(c.NextCore(), tag)
}

// ThreadOn pins a thread to a specific core.
func (c *CPU) ThreadOn(i int, tag string) *Thread {
	return newThread(c.cores[i], tag)
}

func newThread(core *Core, tag string) *Thread {
	return &Thread{Core: core, Tag: tag, busy: core.slot(tag)}
}

// Exec runs d of work on the thread's core, accounted under the thread tag.
func (t *Thread) Exec(p *Proc, d Duration) { t.Core.exec(p, t.busy, d) }

// Spin busy-polls on the thread's core in rounds of length round. It behaves
// exactly like the loop
//
//	for { t.Exec(p, round); if <caller's poll finds work> { break } }
//
// for a caller whose poll can only find work after another simulation event
// has run or once virtual time reaches until (Never when no poll condition is
// time-driven) — but costs one scheduled event instead of one per round. It
// returns how many rounds elapsed (always >= 1); the caller polls again and
// calls Spin again if that poll is still empty. The empty poll must have
// taken no virtual time, or it is already out of date: a caller whose poll
// did passes until = Now() and gets the single round Exec would run.
//
// The rounds are elided only while nothing can observe them. The spin stops
// at the last round boundary strictly before the horizon — the earliest of
// the next queued event, the limit of the run in progress (CPU snapshots are
// taken between RunUntil calls) and until — so the round that crosses the
// horizon is scheduled on its own, at the instant and with the sequence
// number the per-round loop would give it, and same-instant ties dispatch in
// the same order. A spin that had to wait for the core runs a single round:
// the caller's empty poll is stale by then, and a waiter queued behind it
// takes the core at the next round boundary. Every other process therefore
// sees the virtual times, per-tag CPU figures and event order of the
// per-round loop.
func (t *Thread) Spin(p *Proc, round Duration, until Time) (rounds int) {
	e, res := p.env, t.Core.res
	rounds = 1
	if !res.TryAcquire() {
		res.Acquire()
	} else if round > 0 {
		h := until
		if e.limit < h {
			h = e.limit
		}
		if next, ok := e.q.peek(); ok && next < h {
			h = next
		}
		if h == Never {
			panic("sim: Spin with no queued event, run limit or until would never return")
		}
		// Last boundary strictly before h; the division is skipped when
		// fewer than two rounds fit (pollers bounding each other).
		if span := h - 1 - e.now; span >= 2*Time(round) {
			rounds = int(span / Time(round))
		}
	}
	d := Duration(rounds) * round
	p.Sleep(d)
	res.Release()
	*t.busy += d
	return rounds
}
