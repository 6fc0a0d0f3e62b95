package sim

import (
	"math/bits"
	"slices"
)

// The event queue is the scheduler's hot data structure. The seed
// implementation was a container/heap of *event: one heap allocation per
// scheduled event, interface boxing on every push/pop, and O(log n)
// comparisons per operation. This version stores events by value in three
// tiers, ordered strictly by (t, seq) exactly like the old heap:
//
//   - cur: the same-instant batch — every queued event at exactly the
//     current virtual time, in seq (push) order. Dispatch is a pointer bump.
//   - wheel: near-future buckets of 64 ns covering a ~131 us window from
//     the window base — wide enough that device-latency timers (tens of
//     microseconds) file straight into a bucket instead of staging through
//     the overflow heap. A bucket is sorted once, when it becomes the
//     active bucket ("slot"); pushes that land below the active bucket's
//     end are merged into the slot by binary insertion.
//   - over: a value-based 4-ary min-heap for everything beyond the window.
//     When the wheel drains, the window is rebased at the heap's minimum and
//     the near span migrates into the buckets (each event migrates at most
//     once).
//
// All backing arrays are reused across batches, so steady-state push/pop
// performs no allocations. Cancelled timers and wakes for finished
// processes are deleted lazily: they are counted in dead and skipped at
// dispatch, and the tiers are compacted in place when dead events exceed
// half the queue.
const (
	slotBits  = 6                           // 64 ns per near-future bucket
	slotGrain = Time(1) << slotBits         // bucket width
	wheelBits = 11                          // 2048 buckets
	wheelSize = 1 << wheelBits              // bucket count
	wheelSpan = Time(wheelSize) << slotBits // ~131 us near-future window
)

type event struct {
	t   Time
	seq uint64
	// Exactly one behavior applies: run fn in scheduler context, fire tok
	// (a cancellable timeout), or wake the parked process p. Timer events
	// carry both tok and p (= tok.p, nil for a WaitTimeoutFunc waiter).
	p   *Proc
	fn  func()
	tok *waitTok
}

// less is the scheduler's total order: time, then push sequence.
func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

type queue struct {
	cur      []event // events at exactly the current instant, dispatch order
	curHead  int
	slot     []event // sorted (t, seq) events below slotEnd (active bucket)
	slotHead int
	slotEnd  Time // exclusive upper bound of the active slot's coverage

	winBase   Time // window start, multiple of slotGrain
	bucketIdx int  // next bucket index to scan (buckets below are empty)
	wheelN    int  // events currently held in buckets
	buckets   [wheelSize][]event
	occ       [wheelSize / 64]uint64 // bucket occupancy bitmap

	over overflowHeap // t >= winBase+wheelSpan

	size int // total queued events, including dead ones
	dead int // lazily-cancelled events still occupying a tier
}

// push files ev into the tier matching its timestamp. now is the current
// virtual time; ev.t >= now has already been checked by the caller.
func (q *queue) push(now Time, ev event) {
	q.size++
	switch {
	case ev.t == now:
		q.cur = append(q.cur, ev)
	case ev.t < q.slotEnd:
		q.slotInsert(ev)
	case ev.t < q.winBase+wheelSpan:
		i := int((ev.t - q.winBase) >> slotBits)
		if len(q.buckets[i]) == 0 {
			q.occ[i>>6] |= 1 << uint(i&63)
		}
		q.buckets[i] = append(q.buckets[i], ev)
		q.wheelN++
	default:
		q.over.push(ev)
	}
}

// slotInsert merges ev into the sorted active slot by binary insertion.
// Only the unconsumed tail (from slotHead) is searched; ev sorts after
// everything already dispatched because its time is in the future.
func (q *queue) slotInsert(ev event) {
	s := q.slot
	lo, hi := q.slotHead, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.slot = append(q.slot, event{})
	copy(q.slot[lo+1:], q.slot[lo:])
	q.slot[lo] = ev
}

// next consumes and returns the earliest event if its time is <= limit.
func (q *queue) next(limit Time) (event, bool) {
	for {
		if q.curHead < len(q.cur) {
			ev := q.cur[q.curHead]
			if ev.t > limit {
				return event{}, false
			}
			q.cur[q.curHead] = event{} // release fn/tok references
			q.curHead++
			if q.curHead == len(q.cur) {
				// Reset eagerly so a same-instant push/pop chain (ping-pong
				// at one timestamp) reuses the batch buffer instead of
				// growing it without bound.
				q.cur = q.cur[:0]
				q.curHead = 0
			}
			q.size--
			return ev, true
		}
		q.cur = q.cur[:0]
		q.curHead = 0
		if !q.promote(limit) {
			return event{}, false
		}
	}
}

// peek returns the timestamp of the earliest queued event (dead ones
// included) without consuming it or moving anything between tiers. The tiers
// are ordered — cur <= slot < wheel < over — so the first non-empty one holds
// the minimum; only the wheel's first occupied bucket needs a (short) scan.
func (q *queue) peek() (Time, bool) {
	switch {
	case q.curHead < len(q.cur):
		return q.cur[q.curHead].t, true
	case q.slotHead < len(q.slot):
		return q.slot[q.slotHead].t, true
	case q.wheelN > 0:
		b := q.buckets[q.nextOccupied(q.bucketIdx)]
		t := b[0].t
		for _, ev := range b[1:] {
			if ev.t < t {
				t = ev.t
			}
		}
		return t, true
	case q.over.len() > 0:
		return q.over.min().t, true
	}
	return 0, false
}

// promote refills cur with the next instant's batch: the maximal run of
// equal-time events at the queue's minimum, in seq order. It reports false
// when the queue is empty or the next event lies beyond limit.
func (q *queue) promote(limit Time) bool {
	for q.slotHead >= len(q.slot) {
		q.slot = q.slot[:0]
		q.slotHead = 0
		switch {
		case q.wheelN > 0:
			i := q.nextOccupied(q.bucketIdx)
			if i < 0 {
				panic("sim: wheel occupancy corrupt")
			}
			b := q.buckets[i]
			q.slot = append(q.slot, b...)
			for j := range b {
				b[j] = event{}
			}
			q.buckets[i] = b[:0]
			q.occ[i>>6] &^= 1 << uint(i&63)
			q.wheelN -= len(q.slot)
			q.bucketIdx = i + 1
			q.slotEnd = q.winBase + Time(i+1)<<slotBits
			sortEvents(q.slot)
		case q.over.len() > 0:
			// Rebase the window at the overflow minimum and migrate the
			// near span into the buckets.
			q.winBase = q.over.min().t &^ (slotGrain - 1)
			q.bucketIdx = 0
			q.slotEnd = q.winBase
			end := q.winBase + wheelSpan
			for q.over.len() > 0 && q.over.min().t < end {
				ev := q.over.pop()
				i := int((ev.t - q.winBase) >> slotBits)
				if len(q.buckets[i]) == 0 {
					q.occ[i>>6] |= 1 << uint(i&63)
				}
				q.buckets[i] = append(q.buckets[i], ev)
				q.wheelN++
			}
		default:
			return false
		}
	}
	t := q.slot[q.slotHead].t
	if t > limit {
		return false
	}
	for q.slotHead < len(q.slot) && q.slot[q.slotHead].t == t {
		q.cur = append(q.cur, q.slot[q.slotHead])
		q.slot[q.slotHead] = event{}
		q.slotHead++
	}
	return true
}

// nextOccupied returns the first occupied bucket index at or after from,
// or -1.
func (q *queue) nextOccupied(from int) int {
	if from >= wheelSize {
		return -1
	}
	w := from >> 6
	b := q.occ[w] &^ (1<<uint(from&63) - 1)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w >= len(q.occ) {
			return -1
		}
		b = q.occ[w]
	}
}

func sortEvents(s []event) {
	slices.SortFunc(s, func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// deadEvent reports whether ev was lazily cancelled: a timeout whose token
// already fired, or a wake for a process that has finished.
func deadEvent(ev event) bool {
	if ev.tok != nil && ev.tok.fired {
		return true
	}
	return ev.fn == nil && ev.tok == nil && ev.p != nil && ev.p.done
}

// compact removes lazily-deleted events from every tier in place,
// preserving order, and hands each removed timer's token to dropTimer.
// Called when dead events exceed half the queue.
func (q *queue) compact(dropTimer func(*waitTok)) {
	filter := func(s []event, head int) []event {
		w := head
		for r := head; r < len(s); r++ {
			if !deadEvent(s[r]) {
				s[w] = s[r]
				w++
			} else if s[r].tok != nil {
				dropTimer(s[r].tok)
			}
		}
		for z := w; z < len(s); z++ {
			s[z] = event{}
		}
		return s[:w]
	}
	q.cur = filter(q.cur, q.curHead)
	q.slot = filter(q.slot, q.slotHead)
	q.wheelN = 0
	for i := range q.buckets {
		if len(q.buckets[i]) == 0 {
			continue
		}
		q.buckets[i] = filter(q.buckets[i], 0)
		if len(q.buckets[i]) == 0 {
			q.occ[i>>6] &^= 1 << uint(i&63)
		}
		q.wheelN += len(q.buckets[i])
	}
	q.over = overflowHeap(filter([]event(q.over), 0))
	q.over.init()
	q.size = (len(q.cur) - q.curHead) + (len(q.slot) - q.slotHead) + q.wheelN + q.over.len()
	q.dead = 0
}

// clear drops every queued event (environment shutdown).
func (q *queue) clear() {
	*q = queue{}
}

// overflowHeap is a value-based 4-ary min-heap ordered by (t, seq). Four
// children per node halve the tree depth of a binary heap and keep sift
// loops within one or two cache lines of events.
type overflowHeap []event

func (h overflowHeap) len() int   { return len(h) }
func (h overflowHeap) min() event { return h[0] }

func (h *overflowHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *overflowHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	s.siftDown(0)
	return top
}

func (h overflowHeap) siftDown(i int) {
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if less(h[k], h[m]) {
				m = k
			}
		}
		if !less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// init re-establishes the heap property after bulk edits (compaction).
func (h overflowHeap) init() {
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		h.siftDown(i)
	}
}
