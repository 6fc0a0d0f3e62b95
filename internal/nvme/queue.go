package nvme

import "fmt"

// ring is what an SQ and a CQ share: the logical indices the protocol sees
// and the memory behind them. head and tail run over [0, size) exactly as on
// a device, and one slot stays unused to tell full from empty. The backing
// follows occupancy, not depth: a queue holds no memory until its first push,
// then one slot, doubled whenever a push would exceed it, so it ends at the
// most entries the queue has held rounded up to a power of two, and never
// shrinks. Logical index i lives in slot i&mask: the slot count divides
// size and is at least the live count, so the live window [head, tail) maps
// to distinct slots however it wraps. A depth that is not a power of two
// takes all its slots at the first push (mask is all ones there, so slot i
// is i).
type ring struct {
	buf  []byte // the backing, len(buf)/entry size slots
	mask uint32
	size uint32 // the depth
	head uint32 // consumer index (the CQ doorbell)
	tail uint32 // producer index
}

// count returns the number of entries in [head, tail).
func (r *ring) count() uint32 {
	n := r.tail - r.head
	if r.tail < r.head {
		n += r.size
	}
	return n
}

// next returns the logical index after i.
func (r *ring) next(i uint32) uint32 {
	if i++; i == r.size {
		return 0
	}
	return i
}

// entry returns the backing from logical index i's slot on, for entries of
// esz bytes.
func (r *ring) entry(i, esz uint32) []byte { return r.buf[(i&r.mask)*esz:] }

// grow re-lays the n live entries [head, tail), which fill every slot, into
// a backing of twice as many slots of esz bytes. A push calls it before
// taking a slot the backing does not have.
func (r *ring) grow(n, esz uint32) {
	slots, mask := 2*n, 2*n-1
	switch {
	case r.size&(r.size-1) != 0:
		slots, mask = r.size, ^uint32(0)
	case n == 0:
		slots, mask = 1, 0
	}
	buf := make([]byte, slots*esz)
	for i := r.head; i != r.head+n; i++ {
		copy(buf[(i&mask)*esz:][:esz], r.entry(i, esz))
	}
	r.buf, r.mask = buf, mask
}

// SQ is an NVMe submission queue ring. The producer (host/guest driver)
// owns the tail; the consumer (controller/router) owns the head. In the
// simulation the queue lives in shared memory, and consumers poll Tail —
// this is exactly the MDev-NVMe/NVMetro shadow-doorbell model where no trap
// is taken on submission.
type SQ struct {
	ID uint16
	ring
	OnPush func() // optional hook, called once per accepted push; nil = polled
}

// NewSQ creates a submission queue with the given entry count (power of two
// not required; one slot is kept unused to distinguish full from empty).
// The ring's memory follows its occupancy (see ring), so a queue nothing
// submits to holds none.
func NewSQ(id uint16, entries uint32) *SQ {
	if entries < 2 {
		panic("nvme: SQ needs at least 2 entries")
	}
	return &SQ{ID: id, ring: ring{size: entries}}
}

// Head returns the consumer index.
func (q *SQ) Head() uint32 { return q.head }

// Len returns the number of occupied entries.
func (q *SQ) Len() uint32 { return q.count() }

// Full reports whether a Push would fail.
func (q *SQ) Full() bool { return q.count() == q.size-1 }

// Empty reports whether the queue has no entries.
func (q *SQ) Empty() bool { return q.head == q.tail }

// Push enqueues a command, reporting false when the ring is full.
func (q *SQ) Push(c *Command) bool {
	if q.Full() {
		return false
	}
	if n := q.count(); n == uint32(len(q.buf))/CommandSize {
		q.grow(n, CommandSize)
	}
	*(*Command)(q.entry(q.tail, CommandSize)) = *c
	q.tail = q.next(q.tail)
	if q.OnPush != nil {
		q.OnPush()
	}
	return true
}

// Peek copies the oldest command into c without consuming it, reporting
// false when empty. The router's QoS gate uses this to learn a command's
// cost (payload size) before deciding whether to admit it — a denied
// command stays in the ring and backpressures the producer.
func (q *SQ) Peek(c *Command) bool {
	if q.Empty() {
		return false
	}
	*c = *(*Command)(q.entry(q.head, CommandSize))
	return true
}

// Pop dequeues the oldest command into c, reporting false when empty.
func (q *SQ) Pop(c *Command) bool {
	if q.Empty() {
		return false
	}
	*c = *(*Command)(q.entry(q.head, CommandSize))
	q.head = q.next(q.head)
	return true
}

func (q *SQ) String() string {
	return fmt.Sprintf("SQ%d{%d/%d}", q.ID, q.Len(), q.size)
}

// CQ is an NVMe completion queue ring with the phase-tag protocol: the
// producer writes entries whose phase bit flips every ring wrap, so the
// consumer can detect new entries without a producer-updated index —
// the basis of interrupt-free busy polling. The phase flips when the
// logical index wraps, whatever the backing holds.
type CQ struct {
	ID uint16
	ring
	prodPh bool   // phase the producer writes
	consPh bool   // phase the consumer expects
	OnPost func() // optional hook (interrupt model), called once per accepted post; nil = polled
}

// NewCQ creates a completion queue with the given entry count. Like an
// SQ's, the ring's memory follows its occupancy.
func NewCQ(id uint16, entries uint32) *CQ {
	if entries < 2 {
		panic("nvme: CQ needs at least 2 entries")
	}
	return &CQ{ID: id, ring: ring{size: entries}, prodPh: true, consPh: true}
}

// Len returns the number of unconsumed entries.
func (q *CQ) Len() uint32 { return q.count() }

// Full reports whether a Push would overrun the consumer.
func (q *CQ) Full() bool { return q.count() == q.size-1 }

// Push posts a completion entry; the producer stamps the current phase.
// It reports false if the queue is full (a fatal condition for a real
// controller, surfaced to callers so they can assert on it).
func (q *CQ) Push(e *Completion) bool {
	if q.Full() {
		return false
	}
	if n := q.count(); n == uint32(len(q.buf))/CompletionSize {
		q.grow(n, CompletionSize)
	}
	entry := (*Completion)(q.entry(q.tail, CompletionSize))
	*entry = *e
	entry.SetPhase(q.prodPh)
	if q.tail++; q.tail == q.size {
		q.tail, q.prodPh = 0, !q.prodPh
	}
	if q.OnPost != nil {
		q.OnPost()
	}
	return true
}

// Peek reports whether a new entry is visible to the consumer (phase match)
// without consuming it.
func (q *CQ) Peek() bool {
	if q.head == q.tail {
		return false // the poller's common case: no entry to copy out
	}
	return (*Completion)(q.entry(q.head, CompletionSize)).Phase() == q.consPh
}

// Pop consumes the next completion entry, reporting false when none is
// visible. Popping advances the consumer head (the CQ doorbell).
func (q *CQ) Pop(e *Completion) bool {
	if q.head == q.tail {
		return false // the poller's common case: no entry to copy out
	}
	*e = *(*Completion)(q.entry(q.head, CompletionSize))
	if e.Phase() != q.consPh {
		return false
	}
	if q.head++; q.head == q.size {
		q.head, q.consPh = 0, !q.consPh
	}
	return true
}

func (q *CQ) String() string {
	return fmt.Sprintf("CQ%d{%d/%d}", q.ID, q.Len(), q.size)
}

// Post is a convenience for building and pushing a completion.
func (q *CQ) Post(cid, sqid uint16, sqhd uint32, status Status, result uint32) bool {
	var e Completion
	e.SetCID(cid)
	e.SetSQID(sqid)
	e.SetSQHD(uint16(sqhd))
	e.SetStatus(status)
	e.SetResult(result)
	return q.Push(&e)
}

// QueuePair couples a submission queue with its completion queue. NVMe
// allows N:1 SQ:CQ mappings; QueuePair is the common 1:1 case used by the
// router's per-path queues.
type QueuePair struct {
	SQ *SQ
	CQ *CQ
}

// NewQueuePair creates a 1:1 SQ/CQ pair with the same depth and ID.
func NewQueuePair(id uint16, entries uint32) *QueuePair {
	return &QueuePair{SQ: NewSQ(id, entries), CQ: NewCQ(id, entries)}
}
