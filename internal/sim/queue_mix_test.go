package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// queueShape is one benchmark workload's traffic through the event queue,
// counted over a one-second run of the end-to-end benchmark (bench/, seed
// 1): the share of pushes, in per mille, made at the current instant,
// 128 ns–4 us ahead (holds and poll rounds), 4–65 us ahead, and 65–131 us
// ahead (device timers; the few beyond are left out); how many peeks
// (Thread.Spin sizing its next step) come per event; and the occupancy the
// rig holds, about the run's peak queue length (4, 227, 77, 1808).
type queueShape struct {
	name                 string
	now, hold, mid, late int // per mille of pushes
	peeks                int // per mille of events
	occupancy            int
}

var queueShapes = []queueShape{
	{"qd1", 238, 667, 0, 95, 333, 4},
	{"sat", 483, 443, 0, 74, 0, 227},
	{"mix", 206, 753, 29, 12, 379, 75},
	{"fleet", 244, 712, 2, 42, 370, 1808},
}

// mixDraw is one event's worth of a shape: the offset of the push that
// replaces it, whether a peek precedes it, and whether the push is a device
// timer.
type mixDraw struct {
	dt    Time
	peek  bool
	timer bool
}

// mixRig drives a bare queue with a shape's traffic the way Env.dispatch
// drives it: every event consumed (peeked at first, now and then) is
// replaced by one push, so occupancy stays put. With cancel set, every
// other device timer is a cancellable timeout whose signal arrives a few
// events later, so dead events pile up for compaction.
type mixRig struct {
	q         queue
	now       Time
	seq       uint64
	draws     []mixDraw // cycled; length a power of two
	i         int
	occupancy int
	cancel    bool
	pending   []*waitTok // timeouts whose signal is still to come, oldest first
	free      []*waitTok
	drop      func(*waitTok)
	fn        func()

	rebases, compactions int
}

func newMixRig(sh queueShape, cancel bool) *mixRig {
	rng := rand.New(rand.NewSource(3))
	r := &mixRig{draws: make([]mixDraw, 1<<14), occupancy: sh.occupancy, cancel: cancel, fn: func() {}}
	r.drop = r.unref
	for i := range r.draws {
		d := &r.draws[i]
		d.peek = rng.Intn(1000) < sh.peeks
		switch c := rng.Intn(1000); {
		case c < sh.now:
		case c < sh.now+sh.hold:
			d.dt = Time(128 + rng.Intn(4000-128))
		case c < sh.now+sh.hold+sh.mid:
			d.dt = Time(4000 + rng.Intn(65000-4000))
		default:
			d.dt = Time(65000 + rng.Intn(int(wheelSpan)-65000))
			d.timer = true
		}
	}
	for i := 0; i < sh.occupancy; i++ {
		r.push(r.draws[i])
	}
	return r
}

// run consumes and replaces n events.
func (r *mixRig) run(n int) {
	q := &r.q
	for ; n > 0; n-- {
		d := r.draws[r.i&(len(r.draws)-1)]
		r.i++
		if d.peek {
			q.peek()
		}
		base := q.winBase
		k, _ := q.next(Never)
		if q.winBase != base {
			r.rebases++
		}
		ev := q.take(k.idx)
		r.now = k.t
		if tok := ev.tok; tok != nil {
			if tok.fired {
				q.dead--
			} else {
				tok.fired = true
			}
			r.unref(tok)
		}
		r.push(d)
		if q.size < r.occupancy {
			// Replace one of the events a compaction swept away, as the
			// pop it no longer gets would have.
			r.push(r.draws[(r.i+len(r.draws)/2)&(len(r.draws)-1)])
		}
	}
}

func (r *mixRig) push(d mixDraw) {
	q := &r.q
	r.seq++
	if !r.cancel || !d.timer {
		q.push(r.now, r.now+d.dt, r.seq, payload{fn: r.fn})
		return
	}
	tok := takeFree(&r.free)
	if tok == nil {
		tok = &waitTok{}
	}
	*tok = waitTok{refs: 1}
	if r.seq&1 == 0 {
		tok.refs++
		r.pending = append(r.pending, tok)
	}
	q.push(r.now, r.now+d.dt, r.seq, payload{tok: tok})
	if len(r.pending) > 4 {
		// The oldest pending timeout's signal arrives (Cond.Signal's
		// cancelTimer, when the timer has not fired yet).
		s := r.pending[0]
		r.pending = append(r.pending[:0], r.pending[1:]...)
		if !s.fired {
			s.fired = true
			q.dead++
		}
		r.unref(s)
	}
	if q.dead >= compactMinDead && q.dead*2 > q.size {
		r.compact()
	}
}

func (r *mixRig) compact() {
	r.q.compact(r.drop)
	r.compactions++
}

func (r *mixRig) unref(tok *waitTok) {
	if tok.refs--; tok.refs == 0 {
		r.free = append(r.free, tok)
	}
}

// BenchmarkQueueMix prices the event queue alone under each benchmark
// workload's measured traffic (see queueShapes): push, next, take and peek
// at the workload's steady occupancy. One op is one event. It isolates the
// queue's share of a routed I/O from the host-time noise of an end-to-end
// run, which can exceed what a queue change saves.
func BenchmarkQueueMix(b *testing.B) {
	for _, sh := range queueShapes {
		b.Run(sh.name, func(b *testing.B) {
			r := newMixRig(sh, false)
			r.run(200_000)
			b.ReportAllocs()
			b.ResetTimer()
			r.run(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestQueueMixAllocs is the queue's allocation gate: once warm, every
// 10,000 events of every shape — cancelled timeouts, a compaction and, over
// the run, window rebases through the overflow heap among them — allocate
// nothing.
func TestQueueMixAllocs(t *testing.T) {
	const rounds = 10 // of 10,000 events, enough for the largest shape to rebase
	for _, sh := range queueShapes {
		t.Run(sh.name, func(t *testing.T) {
			r := newMixRig(sh, true)
			work := func() {
				for range rounds {
					r.run(5_000)
					r.compact()
					r.run(5_000)
				}
			}
			for range 5 {
				work()
			}
			// A bucket's array keeps the most keys the bucket has held, a
			// record that rises ever more slowly as windows go by, at a
			// pace set by the shape's statistics rather than by the queue.
			// The gate is about the per-event path, so every bucket starts
			// with the capacity of the largest.
			c := 0
			for _, b := range r.q.buckets {
				c = max(c, cap(b))
			}
			for i, b := range r.q.buckets {
				r.q.buckets[i] = slices.Grow(b, c-len(b))
			}
			rebases, compactions := r.rebases, r.compactions
			allocs := testing.AllocsPerRun(1, work)
			if allocs != 0 {
				t.Errorf("%v allocations per %d events", allocs, rounds*10_000)
			}
			// AllocsPerRun calls the function twice: a warm-up and the
			// measured run.
			if r.rebases-rebases < 2 || r.compactions-compactions < 2*rounds {
				t.Fatalf("%d window rebases and %d compactions in the measured events", r.rebases-rebases, r.compactions-compactions)
			}
			if live := len(r.q.slab) - len(r.q.free); live != r.q.size || r.q.size != sh.occupancy {
				t.Fatalf("%d live slab entries for %d queued events, want %d", live, r.q.size, sh.occupancy)
			}
		})
	}
}
