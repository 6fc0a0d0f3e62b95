// Package ring provides the lock-free multi-producer single-consumer
// queue that carries cross-shard traffic into a shard's dispatch loop.
//
// Two kinds of producers feed a shard from outside its own poll cycle:
// kernel-path completion callbacks (the blockdev stack finishing a KQ
// command on another host thread) and control-plane posts (reconcile
// fences, promotion grants). Both must reach the owning shard without a
// cross-shard lock, and both must drain at a deterministic point in the
// shard's round so the simulation stays bit-reproducible at any shard
// count.
//
// The queue is an intrusive Vyukov MPSC list: producers swap themselves
// onto the head with one atomic exchange and link the previous head;
// the single consumer walks from the tail. Push is wait-free; Pop is
// lock-free (a producer between the swap and the link leaves the chain
// momentarily broken, which Pop reports as "try again next round" —
// harmless for a poll loop that revisits its inbox every cycle, and
// impossible under the cooperative simulation scheduler, where a push
// runs to completion before the consumer resumes).
package ring

import "sync/atomic"

type node struct {
	next atomic.Pointer[node]
	fn   func()
}

// MPSC is an unbounded multi-producer single-consumer queue of thunks.
// The zero value is NOT ready; use New. All methods except Pop and Drain
// may be called concurrently; Pop/Drain must stay on one consumer.
type MPSC struct {
	head atomic.Pointer[node] // most recently pushed (producer side)
	tail *node                // consumer cursor; points at a consumed stub
	size atomic.Int64
}

// New returns an empty queue.
func New() *MPSC {
	q := &MPSC{}
	stub := &node{}
	q.head.Store(stub)
	q.tail = stub
	return q
}

// Push enqueues fn and reports whether the queue was empty beforehand —
// the producer-side signal that the consumer may be parked and needs a
// doorbell. fn must be non-nil.
func (q *MPSC) Push(fn func()) (wasEmpty bool) {
	n := &node{fn: fn}
	wasEmpty = q.size.Add(1) == 1
	prev := q.head.Swap(n)
	prev.next.Store(n)
	return wasEmpty
}

// Pop dequeues the oldest thunk. ok is false when the queue is empty or
// a producer is mid-push (retry on the next poll round).
func (q *MPSC) Pop() (fn func(), ok bool) {
	next := q.tail.next.Load()
	if next == nil {
		return nil, false
	}
	q.tail.fn = nil // release the consumed thunk
	q.tail = next
	q.size.Add(-1)
	return next.fn, true
}

// Len is the approximate queue depth (exact when producers are quiescent,
// e.g. read from inside the owning shard's round or a diagnostics dump).
func (q *MPSC) Len() int {
	if n := q.size.Load(); n > 0 {
		return int(n)
	}
	return 0
}
