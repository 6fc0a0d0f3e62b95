package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the reference event queue: a container/heap holding the rule
// the kernel keeps. Events due at an instant run in (t, seq) order among
// those queued before the instant arrived, then the pushes made at the
// instant itself, in push order. With fresh sequence numbers that is plain
// (t, seq) order; the two differ only for a push that reuses a reserved seq
// (Deadlines) at the current instant. The property tests drive it in
// lockstep with the tiered queue and require identical dispatch order,
// including RunUntil limit boundaries.
type refHeap []refEvent

type refEvent struct {
	t    Time
	seq  uint64
	late bool   // pushed at the instant it is due
	ord  uint64 // push order
	ev   payload
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.t != b.t:
		return a.t < b.t
	case a.late != b.late:
		return b.late
	case a.late:
		return a.ord < b.ord
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// lockstep drives the tiered queue and the reference side by side, keeping
// the dead-event accounting Env keeps, and checks the slab after every
// operation: one entry per queued event, and never more than the peak
// occupancy.
type lockstep struct {
	t    *testing.T
	q    queue
	ref  refHeap
	now  Time
	seq  uint64 // last sequence number handed out
	ord  uint64
	peak int
}

// push queues ev at t under a fresh sequence number.
func (l *lockstep) push(t Time, ev payload) {
	l.seq++
	l.pushSeq(t, l.seq, ev)
}

// pushSeq queues ev at t under seq, which may have been reserved earlier.
func (l *lockstep) pushSeq(t Time, seq uint64, ev payload) {
	l.t.Helper()
	if ev.p != nil {
		ev.p.wakes++
	}
	l.q.push(l.now, t, seq, ev)
	l.ord++
	heap.Push(&l.ref, refEvent{t: t, seq: seq, late: t == l.now, ord: l.ord, ev: ev})
	l.peak = max(l.peak, l.q.size)
	l.check()
}

// pop consumes one event from both queues under the same limit and fails
// the test on any divergence — first checking that peek names the
// reference's minimum without disturbing the queue. It reports whether an
// event was produced.
func (l *lockstep) pop(limit Time) bool {
	l.t.Helper()
	if pt, ok := l.q.peek(); ok != (len(l.ref) > 0) || (ok && pt != l.ref[0].t) {
		l.t.Fatalf("peek = (%d, %v) with %d events queued, earliest reference event %v", pt, ok, len(l.ref), l.ref[:min(1, len(l.ref))])
	}
	k, okGot := l.q.next(limit)
	okWant := len(l.ref) > 0 && l.ref[0].t <= limit
	if okGot != okWant {
		l.t.Fatalf("availability diverged at limit %d: queue=%v ref=%v", limit, okGot, okWant)
	}
	if !okGot {
		l.check()
		return false
	}
	want := heap.Pop(&l.ref).(refEvent)
	got := l.q.take(k.idx)
	if k.t != want.t || k.seq != want.seq || got.p != want.ev.p || got.tok != want.ev.tok || (got.fn == nil) != (want.ev.fn == nil) {
		l.t.Fatalf("dispatch order diverged: queue=(t=%d seq=%d) ref=(t=%d seq=%d late=%v)", k.t, k.seq, want.t, want.seq, want.late)
	}
	if k.t < l.now {
		l.t.Fatalf("time went backwards: %d -> %d", l.now, k.t)
	}
	l.now = k.t
	// Env.dispatch's accounting for what it pops.
	if got.p != nil {
		got.p.wakes--
	}
	if got.dead() {
		l.q.dead--
	} else if got.tok != nil {
		got.tok.fired = true
	}
	l.check()
	return true
}

// compact sweeps both queues of their dead events.
func (l *lockstep) compact() {
	l.q.compact(func(*waitTok) {})
	live := l.ref[:0]
	for _, r := range l.ref {
		if !r.ev.dead() {
			live = append(live, r)
		}
	}
	l.ref = live
	heap.Init(&l.ref)
	l.check()
}

func (l *lockstep) check() {
	l.t.Helper()
	q := &l.q
	if live := len(q.slab) - len(q.free); live != q.size || q.size != len(l.ref) {
		l.t.Fatalf("%d live slab entries, QueueLen %d, reference holds %d", live, q.size, len(l.ref))
	}
	if len(q.slab) > l.peak {
		l.t.Fatalf("slab of %d entries past peak occupancy %d", len(q.slab), l.peak)
	}
}

// TestQueueMatchesHeapRandom drives random interleaved pushes and pops
// through both implementations. Timestamps are drawn from mixed scales so
// events land in every tier: the same-instant batch, the active slot, the
// wheel buckets, and the overflow heap.
func TestQueueMatchesHeapRandom(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		l := &lockstep{t: t}
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 || l.q.size == 0 {
				l.push(l.now+randDT(rng), payload{fn: func() {}})
			} else {
				l.pop(Never)
			}
		}
		for l.pop(Never) {
		}
		if l.q.size != 0 {
			t.Fatalf("trial %d: residual events %d", trial, l.q.size)
		}
	}
}

// randDT draws an offset spanning same-instant (0), slot/wheel range, and
// far overflow, weighted toward the near tiers where ordering is subtle.
func randDT(rng *rand.Rand) Time {
	switch rng.Intn(10) {
	case 0, 1, 2:
		return 0
	case 3, 4, 5:
		return Time(rng.Intn(64)) // within one bucket grain
	case 6, 7:
		return Time(rng.Intn(int(wheelSpan)))
	case 8:
		return wheelSpan + Time(rng.Intn(1<<20))
	default:
		return Time(rng.Intn(1 << 40))
	}
}

// TestQueueMatchesHeapSameInstantStorm floods a single instant with bursts,
// interleaving pushes at the current time with drains — the pattern produced
// by Broadcast and zero-delay handoff chains. FIFO (seq) order within the
// instant must match the heap exactly.
func TestQueueMatchesHeapSameInstantStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := &lockstep{t: t}
	for round := 0; round < 300; round++ {
		burst := 1 + rng.Intn(64)
		for i := 0; i < burst; i++ {
			dt := Time(0)
			if rng.Intn(4) == 0 {
				dt = Time(1 + rng.Intn(128))
			}
			l.push(l.now+dt, payload{fn: func() {}})
		}
		drains := rng.Intn(burst + 1)
		for i := 0; i < drains; i++ {
			if !l.pop(Never) {
				break
			}
		}
	}
	for l.pop(Never) {
	}
}

// TestQueueMatchesHeapLimitBoundaries replays RunUntil semantics: drain up
// to a limit, verify both queues refuse events beyond it, then advance the
// limit and continue. Limits are chosen to land exactly on, just before,
// and just after queued timestamps.
func TestQueueMatchesHeapLimitBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := &lockstep{t: t}
	var stamps []Time
	for i := 0; i < 500; i++ {
		dt := Time(rng.Intn(int(wheelSpan) * 2))
		l.push(dt, payload{fn: func() {}})
		stamps = append(stamps, dt)
	}
	limit := Time(0)
	for i := 0; l.q.size > 0; i++ {
		st := stamps[rng.Intn(len(stamps))]
		switch i % 3 {
		case 0:
			limit = st
		case 1:
			limit = st + 1
		default:
			if st > 0 {
				limit = st - 1
			}
		}
		if i > 10000 {
			limit = Never
		}
		limit = max(limit, l.now)
		for l.pop(limit) {
		}
		// Both must agree that nothing at or below the limit remains.
		if len(l.ref) > 0 && l.ref[0].t <= limit {
			t.Fatal("reference still had an admissible event after drain")
		}
	}
}

// TestQueueMatchesReferenceWithCancellations is the lockstep test over
// everything the kernel does to its queue besides plain pushes: sequence
// numbers reserved and pushed later, the way Deadlines.arm pushes them (in
// the future and at the current instant); timers cancelled by their signal
// and wakes whose process finished, both lazily dead; and compaction in the
// middle of the stream, both when Env would trigger it and at random. Dead
// events stay in the comparison until a compaction takes them out of both
// queues.
func TestQueueMatchesReferenceWithCancellations(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		l := &lockstep{t: t}
		type reservation struct {
			at  Time
			seq uint64
		}
		var (
			reserved []reservation
			timers   []*waitTok // queued timers not yet cancelled or popped
			procs    []*Proc    // live processes wakes may target
			waiters  []*Proc    // processes timers may belong to
			compacts int
		)
		// A process parked on a timer cannot finish, so the processes that
		// finish and those that own timers are kept apart.
		for i := 0; i < 8; i++ {
			procs = append(procs, &Proc{})
			waiters = append(waiters, &Proc{})
		}
		nearDT := func() Time {
			if rng.Intn(4) == 0 {
				return randDT(rng)
			}
			return Time(rng.Intn(3 * int(slotGrain)))
		}
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(100); {
			case op < 15: // callback
				l.push(l.now+nearDT(), payload{fn: func() {}})
			case op < 30: // process wake
				l.push(l.now+nearDT(), payload{p: procs[rng.Intn(len(procs))]})
			case op < 40: // cancellable timer, of a process or a continuation
				tok := &waitTok{}
				if rng.Intn(2) == 0 {
					tok.p = waiters[rng.Intn(len(waiters))]
				}
				timers = append(timers, tok)
				l.push(l.now+nearDT(), payload{p: tok.p, tok: tok})
			case op < 47: // Deadlines.Add: take a seq now, push it later
				l.seq++
				reserved = append(reserved, reservation{l.now + Time(rng.Intn(2*int(slotGrain))), l.seq})
			case op < 55: // Deadlines.arm
				if len(reserved) == 0 {
					break
				}
				j := rng.Intn(len(reserved))
				r := reserved[j]
				reserved = append(reserved[:j], reserved[j+1:]...)
				if r.at >= l.now {
					l.pushSeq(r.at, r.seq, payload{fn: func() {}})
				}
			case op < 62: // a signal beats a timer
				if len(timers) == 0 {
					break
				}
				j := rng.Intn(len(timers))
				tok := timers[j]
				timers = append(timers[:j], timers[j+1:]...)
				if !tok.fired { // Cond.Signal's cancelTimer
					tok.fired = true
					if tok.p != nil {
						tok.p.wakes--
					}
					l.q.dead++
				}
			case op < 65: // a process finishes; its queued wakes die
				j := rng.Intn(len(procs))
				p := procs[j]
				p.done = true
				l.q.dead += p.wakes
				procs[j] = &Proc{}
			case op < 67:
				l.compact()
				compacts++
			default:
				limit := Never
				if rng.Intn(4) == 0 {
					limit = l.now + Time(rng.Intn(int(slotGrain)))
				}
				l.pop(limit)
			}
			if l.q.dead >= compactMinDead && l.q.dead*2 > l.q.size {
				l.compact()
				compacts++
			}
			dead := 0
			for _, r := range l.ref {
				if r.ev.dead() {
					dead++
				}
			}
			if dead != l.q.dead {
				t.Fatalf("trial %d step %d: %d dead events queued, QueueDead %d", trial, step, dead, l.q.dead)
			}
		}
		for l.pop(Never) {
		}
		if l.q.size != 0 || l.q.dead != 0 || compacts == 0 {
			t.Fatalf("trial %d: residual events %d (%d dead), %d compactions", trial, l.q.size, l.q.dead, compacts)
		}
	}
}

// TestQueueCompaction checks the lazy-deletion accounting: cancelled
// timeouts pile up as dead events and a compaction sweep reclaims them once
// they exceed half the queue.
func TestQueueCompaction(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	const waiters = 300
	done := 0
	env.Go("signaler", func(p *Proc) {
		for i := 0; i < waiters; i++ {
			env.Go("w", func(p *Proc) {
				// Long timeout that is always beaten by the signal: the
				// queued timer event dies lazily.
				if _, ok := c.WaitTimeout(Second); !ok {
					t.Error("timeout fired unexpectedly")
				}
				done++
			})
		}
		p.Sleep(Microsecond)
		for i := 0; i < waiters; i++ {
			c.Signal(nil)
			p.Sleep(Nanosecond)
		}
	})
	env.Go("watch", func(p *Proc) {
		for i := 0; i < waiters; i++ {
			p.Sleep(Microsecond)
			if d, n := env.QueueDead(), env.QueueLen(); d > n/2+compactMinDead {
				t.Errorf("dead events %d exceed half of queue %d without compaction", d, n)
			}
		}
	})
	env.Run()
	if done != waiters {
		t.Fatalf("only %d/%d waiters signaled", done, waiters)
	}
	if env.QueueDead() != 0 || env.QueueLen() != 0 {
		t.Fatalf("residual events: len=%d dead=%d", env.QueueLen(), env.QueueDead())
	}
}
