package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the seed implementation's event queue: a container/heap ordered
// by (t, seq). The property tests drive it in lockstep with the tiered queue
// and require identical dispatch order, including RunUntil limit boundaries.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return less(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

func (h *refHeap) next(limit Time) (event, bool) {
	if len(*h) == 0 || (*h)[0].t > limit {
		return event{}, false
	}
	return heap.Pop(h).(event), true
}

// popBoth pops one event from both queues under the same limit and fails the
// test on any divergence — first checking that peek names the reference's
// minimum without disturbing the queue. It reports whether an event was
// produced.
func popBoth(t *testing.T, q *queue, ref *refHeap, now *Time, limit Time) bool {
	t.Helper()
	if pt, ok := q.peek(); ok != (len(*ref) > 0) || (ok && pt != (*ref)[0].t) {
		t.Fatalf("peek = (%d, %v) with %d events queued, earliest reference event %v", pt, ok, len(*ref), (*ref)[:min(1, len(*ref))])
	}
	got, okGot := q.next(limit)
	want, okWant := ref.next(limit)
	if okGot != okWant {
		t.Fatalf("availability diverged at limit %d: queue=%v ref=%v", limit, okGot, okWant)
	}
	if !okGot {
		return false
	}
	if got.t != want.t || got.seq != want.seq {
		t.Fatalf("dispatch order diverged: queue=(t=%d seq=%d) ref=(t=%d seq=%d)",
			got.t, got.seq, want.t, want.seq)
	}
	if got.t < *now {
		t.Fatalf("time went backwards: %d -> %d", *now, got.t)
	}
	*now = got.t
	return true
}

// TestQueueMatchesHeapRandom drives random interleaved pushes and pops
// through both implementations. Timestamps are drawn from mixed scales so
// events land in every tier: the same-instant batch, the active slot, the
// wheel buckets, and the overflow heap.
func TestQueueMatchesHeapRandom(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q queue
		var ref refHeap
		var now Time
		var seq uint64
		push := func(dt Time) {
			ev := event{t: now + dt, seq: seq}
			seq++
			q.push(now, ev)
			heap.Push(&ref, ev)
		}
		// Offsets spanning same-instant (0), slot/wheel range, and far
		// overflow; weighted toward the near tiers where ordering is subtle.
		randDT := func() Time {
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
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 || q.size == 0 {
				push(randDT())
			} else {
				popBoth(t, &q, &ref, &now, Never)
			}
		}
		for popBoth(t, &q, &ref, &now, Never) {
		}
		if q.size != 0 || len(ref) != 0 {
			t.Fatalf("trial %d: residual events queue=%d ref=%d", trial, q.size, len(ref))
		}
	}
}

// TestQueueMatchesHeapSameInstantStorm floods a single instant with bursts,
// interleaving pushes at the current time with drains — the pattern produced
// by Broadcast and zero-delay handoff chains. FIFO (seq) order within the
// instant must match the heap exactly.
func TestQueueMatchesHeapSameInstantStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q queue
	var ref refHeap
	var now Time
	var seq uint64
	for round := 0; round < 300; round++ {
		burst := 1 + rng.Intn(64)
		for i := 0; i < burst; i++ {
			dt := Time(0)
			if rng.Intn(4) == 0 {
				dt = Time(1 + rng.Intn(128))
			}
			ev := event{t: now + dt, seq: seq}
			seq++
			q.push(now, ev)
			heap.Push(&ref, ev)
		}
		drains := rng.Intn(burst + 1)
		for i := 0; i < drains; i++ {
			if !popBoth(t, &q, &ref, &now, Never) {
				break
			}
		}
	}
	for popBoth(t, &q, &ref, &now, Never) {
	}
}

// TestQueueMatchesHeapLimitBoundaries replays RunUntil semantics: drain up
// to a limit, verify both queues refuse events beyond it, then advance the
// limit and continue. Limits are chosen to land exactly on, just before,
// and just after queued timestamps.
func TestQueueMatchesHeapLimitBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q queue
	var ref refHeap
	var now Time
	var seq uint64
	var stamps []Time
	for i := 0; i < 500; i++ {
		dt := Time(rng.Intn(int(wheelSpan) * 2))
		ev := event{t: dt, seq: seq}
		seq++
		q.push(0, ev)
		heap.Push(&ref, ev)
		stamps = append(stamps, dt)
	}
	limit := Time(0)
	for i := 0; q.size > 0; i++ {
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
		if limit < now {
			limit = now
		}
		for popBoth(t, &q, &ref, &now, limit) {
		}
		// Both must agree that nothing at or below the limit remains.
		if _, ok := ref.next(limit); ok {
			t.Fatal("reference still had an admissible event after drain")
		}
		if i > 10000 {
			limit = Never
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
