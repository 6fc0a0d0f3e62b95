package sim

import (
	"math/bits"
	"slices"
)

// The event queue is the scheduler's hot data structure. An event is kept in
// two parts. Its payload — what dispatch does with it — is written once, at
// push, into an entry of a slab, and read and freed once, at dispatch. The
// tiers hold only a 24-byte key (t, seq, slab index) with no pointers in it:
// moving a key between tiers is a plain copy that no write barrier sees, and
// a consumed tier entry is never cleared. Keys are ordered by (t, seq), as
// the seed implementation's container/heap ordered its events, across four
// tiers:
//
//   - slot: the active wheel bucket — every key below slotEnd — sorted once
//     when the bucket is activated and dispatched in place by bumping
//     slotHead. A push that lands below slotEnd is merged in by binary
//     insertion.
//   - cur: the pushes made at the current instant, in push order.
//   - wheel: near-future buckets of 64 ns covering a ~131 us window from the
//     window base — wide enough that device-latency timers (tens of
//     microseconds) file straight into a bucket instead of staging through
//     the overflow heap. Buckets are unsorted until activated.
//   - over: a 4-ary min-heap for everything beyond the window. When the
//     wheel drains, the window is rebased at the heap's minimum and the near
//     span migrates into the buckets (each key migrates at most once).
//
// At one instant the order is: the events queued for it before it arrived,
// in (t, seq) order — they are in the slot — then the pushes made at it, in
// push order — they are in cur. next takes the slot's head while its time is
// no later than cur's head (which is the current instant), and cur's head
// otherwise. A push that takes a fresh sequence number sorts after
// everything queued, so for it this is (t, seq) order. A push that reuses a
// reserved one (Deadlines) keeps its (t, seq) place in the slot, wheel and
// overflow heap, and at the current instant goes to the back of cur like any
// other push made there.
//
// All backing arrays are reused, so steady-state push/pop performs no
// allocations. Cancelled timers and wakes for finished processes are deleted
// lazily: they are counted in dead and skipped at dispatch, and the tiers
// are compacted in place when dead events exceed half the queue.
const (
	slotBits  = 6                           // 64 ns per near-future bucket
	slotGrain = Time(1) << slotBits         // bucket width
	wheelBits = 11                          // 2048 buckets
	wheelSize = 1 << wheelBits              // bucket count
	wheelSpan = Time(wheelSize) << slotBits // ~131 us near-future window
)

// key is an event's place in the order and the slab entry of its payload.
type key struct {
	t   Time
	seq uint64
	idx uint32
}

// less is the scheduler's total order: time, then push sequence.
func less(a, b key) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// cmpKey is less as a three-way comparison, for slices.SortFunc. Keys tie
// only when Deadlines re-arms an entry under its reserved seq; both events
// are the same timer callback, so their order cannot be observed.
func cmpKey(a, b key) int {
	if less(a, b) {
		return -1
	}
	return 1
}

// payload is what dispatching an event does. Exactly one behavior applies:
// run fn in scheduler context, fire tok (a cancellable timeout), or wake the
// parked process p. Timer events carry both tok and p (= tok.p, nil for a
// WaitTimeoutFunc waiter).
type payload struct {
	p   *Proc
	fn  func()
	tok *waitTok
}

// dead reports whether the event was lazily cancelled: a timeout whose token
// already fired, or a wake for a process that has finished.
func (ev *payload) dead() bool {
	if ev.tok != nil {
		return ev.tok.fired
	}
	return ev.fn == nil && ev.p != nil && ev.p.done
}

type queue struct {
	cur      []key // pushes made at the current instant, in push order
	curHead  int
	slot     []key // sorted keys below slotEnd: the active bucket
	slotHead int
	slotEnd  Time // exclusive upper bound of the active slot's coverage

	winBase   Time // window start, multiple of slotGrain
	bucketIdx int  // next bucket index to scan (buckets below are empty)
	wheelN    int  // keys currently held in buckets
	buckets   [wheelSize][]key
	occ       [wheelSize / 64]uint64 // bucket occupancy bitmap

	over overflowHeap // t >= winBase+wheelSpan

	slab []payload // one entry per queued event
	free []uint32  // unused slab entries, most recently freed last

	size int // total queued events, including dead ones
	dead int // lazily-cancelled events still occupying a tier
}

// push queues ev at time t with sequence number seq: the payload goes into a
// slab entry and the key into the tier matching t. now is the current
// virtual time; t >= now has already been checked by the caller.
func (q *queue) push(now, t Time, seq uint64, ev payload) {
	var idx uint32
	if n := len(q.free) - 1; n >= 0 {
		idx = q.free[n]
		q.free = q.free[:n]
		q.slab[idx] = ev
	} else {
		idx = uint32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	q.size++
	k := key{t, seq, idx}
	switch {
	case t == now:
		q.cur = append(q.cur, k)
	case t < q.slotEnd:
		q.slotInsert(k)
	case t < q.winBase+wheelSpan:
		q.file(k)
	default:
		q.over.push(k)
	}
}

// file puts k into its wheel bucket.
func (q *queue) file(k key) {
	i := int((k.t - q.winBase) >> slotBits)
	if len(q.buckets[i]) == 0 {
		q.occ[i>>6] |= 1 << uint(i&63)
	}
	q.buckets[i] = append(q.buckets[i], k)
	q.wheelN++
}

// slotInsert merges k into the sorted active slot by binary insertion. Only
// the unconsumed tail (from slotHead) is searched; k sorts after everything
// already dispatched because its time is in the future.
func (q *queue) slotInsert(k key) {
	s := q.slot
	lo, hi := q.slotHead, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, k)
	if lo < len(s)-1 {
		copy(s[lo+1:], s[lo:])
		s[lo] = k
	}
	q.slot = s
}

// next consumes and returns the earliest key if its time is <= limit. The
// caller takes its payload.
func (q *queue) next(limit Time) (key, bool) {
	for {
		if q.slotHead < len(q.slot) {
			k := q.slot[q.slotHead]
			if q.curHead == len(q.cur) || k.t <= q.cur[q.curHead].t {
				if k.t > limit {
					return key{}, false
				}
				if q.slotHead++; q.slotHead == len(q.slot) {
					q.slot, q.slotHead = q.slot[:0], 0
				}
				q.size--
				return k, true
			}
		}
		if q.curHead < len(q.cur) {
			k := q.cur[q.curHead]
			if k.t > limit {
				return key{}, false
			}
			// Reset eagerly so a same-instant push/pop chain (ping-pong at
			// one timestamp) reuses the buffer instead of growing it.
			if q.curHead++; q.curHead == len(q.cur) {
				q.cur, q.curHead = q.cur[:0], 0
			}
			q.size--
			return k, true
		}
		if !q.activate() {
			return key{}, false
		}
	}
}

// take returns the payload of a key next returned and frees its slab entry.
func (q *queue) take(idx uint32) payload {
	ev := q.slab[idx]
	q.release(idx)
	return ev
}

func (q *queue) release(idx uint32) {
	q.slab[idx] = payload{}
	q.free = append(q.free, idx)
}

// peek returns the timestamp of the earliest queued event (dead ones
// included) without consuming it or moving anything between tiers. cur holds
// the current instant, the slot nothing earlier, and slot < wheel < over, so
// the first non-empty tier holds the minimum; only the wheel's first
// occupied bucket needs a (short) scan.
func (q *queue) peek() (Time, bool) {
	switch {
	case q.curHead < len(q.cur):
		return q.cur[q.curHead].t, true
	case q.slotHead < len(q.slot):
		return q.slot[q.slotHead].t, true
	case q.wheelN > 0:
		b := q.buckets[q.nextOccupied(q.bucketIdx)]
		t := b[0].t
		for _, k := range b[1:] {
			t = min(t, k.t)
		}
		return t, true
	case q.over.len() > 0:
		return q.over[0].t, true
	}
	return 0, false
}

// activate makes the next occupied bucket the slot, rebasing the window at
// the overflow minimum first when the wheel is empty. It is called with the
// slot and cur empty, and reports false when the queue is. The keys are
// copied and the bucket keeps its array: passing arrays between buckets and
// the slot was tried, and its extra warm-up allocations failed the shard
// dispatch allocation budget.
func (q *queue) activate() bool {
	if q.wheelN == 0 {
		if q.over.len() == 0 {
			return false
		}
		q.rebase()
	}
	i := q.nextOccupied(q.bucketIdx)
	if i < 0 {
		panic("sim: wheel occupancy corrupt")
	}
	b := q.buckets[i]
	q.buckets[i] = b[:0]
	q.occ[i>>6] &^= 1 << uint(i&63)
	q.wheelN -= len(b)
	q.bucketIdx = i + 1
	q.slotEnd = q.winBase + Time(i+1)<<slotBits
	q.slotHead = 0
	if len(b) == 1 {
		q.slot = append(q.slot[:0], b[0])
	} else {
		q.slot = append(q.slot[:0], b...)
		sortKeys(q.slot)
	}
	return true
}

// rebase moves the window to the overflow minimum and migrates the near span
// into the buckets.
func (q *queue) rebase() {
	q.winBase = q.over[0].t &^ (slotGrain - 1)
	q.bucketIdx = 0
	q.slotEnd = q.winBase
	end := q.winBase + wheelSpan
	for q.over.len() > 0 && q.over[0].t < end {
		q.file(q.over.pop())
	}
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

// sortKeys sorts an activated bucket. Most hold a handful of keys, mostly in
// order already, which insertion sort handles in place without a call.
func sortKeys(s []key) {
	if len(s) > 16 {
		slices.SortFunc(s, cmpKey)
		return
	}
	for i := 1; i < len(s); i++ {
		k, j := s[i], i
		for ; j > 0 && less(k, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = k
	}
}

// compact removes lazily-deleted events from every tier in place,
// preserving order, frees their slab entries and hands each removed timer's
// token to dropTimer. Called when dead events exceed half the queue.
func (q *queue) compact(dropTimer func(*waitTok)) {
	q.cur, q.curHead = q.sweep(q.cur, q.curHead, dropTimer), 0
	q.slot, q.slotHead = q.sweep(q.slot, q.slotHead, dropTimer), 0
	q.wheelN = 0
	for i := range q.buckets {
		if len(q.buckets[i]) == 0 {
			continue
		}
		q.buckets[i] = q.sweep(q.buckets[i], 0, dropTimer)
		if len(q.buckets[i]) == 0 {
			q.occ[i>>6] &^= 1 << uint(i&63)
		}
		q.wheelN += len(q.buckets[i])
	}
	q.over = q.sweep(q.over, 0, dropTimer)
	q.over.init()
	q.size = len(q.cur) + len(q.slot) + q.wheelN + q.over.len()
	q.dead = 0
}

// sweep moves the live keys of s[head:], in order, to the front of s and
// returns them; the dead ones' slab entries are freed.
func (q *queue) sweep(s []key, head int, dropTimer func(*waitTok)) []key {
	w := 0
	for _, k := range s[head:] {
		ev := &q.slab[k.idx]
		if !ev.dead() {
			s[w] = k
			w++
			continue
		}
		if ev.tok != nil {
			dropTimer(ev.tok)
		}
		q.release(k.idx)
	}
	return s[:w]
}

// clear drops every queued event (environment shutdown).
func (q *queue) clear() {
	*q = queue{}
}

// overflowHeap is a 4-ary min-heap of keys ordered by (t, seq). Four
// children per node halve the tree depth of a binary heap and keep sift
// loops within one or two cache lines of keys.
type overflowHeap []key

func (h overflowHeap) len() int { return len(h) }

func (h *overflowHeap) push(k key) {
	s := append(*h, k)
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

func (h *overflowHeap) pop() key {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
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
		end := min(c+4, n)
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
