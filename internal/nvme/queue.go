package nvme

import "fmt"

// SQ is an NVMe submission queue ring. The producer (host/guest driver)
// owns the tail; the consumer (controller/router) owns the head. In the
// simulation the queue lives in shared memory, and consumers poll Tail —
// this is exactly the MDev-NVMe/NVMetro shadow-doorbell model where no trap
// is taken on submission.
type SQ struct {
	ID     uint16
	buf    []byte // the ring, allocated by the first Push
	size   uint32
	head   uint32
	tail   uint32
	OnPush func() // optional hook, called once per accepted push; nil = polled
}

// NewSQ creates a submission queue with the given entry count (power of two
// not required; one slot is kept unused to distinguish full from empty).
// The ring's memory is taken by the first Push, so a queue nothing submits
// to holds none.
func NewSQ(id uint16, entries uint32) *SQ {
	if entries < 2 {
		panic("nvme: SQ needs at least 2 entries")
	}
	return &SQ{ID: id, size: entries}
}

// Head returns the consumer index.
func (q *SQ) Head() uint32 { return q.head }

// Len returns the number of occupied entries.
func (q *SQ) Len() uint32 { return (q.tail + q.size - q.head) % q.size }

// Full reports whether a Push would fail.
func (q *SQ) Full() bool { return (q.tail+1)%q.size == q.head }

// Empty reports whether the queue has no entries.
func (q *SQ) Empty() bool { return q.head == q.tail }

// Push enqueues a command, reporting false when the ring is full.
func (q *SQ) Push(c *Command) bool {
	if q.Full() {
		return false
	}
	if q.buf == nil {
		q.buf = make([]byte, q.size*CommandSize)
	}
	copy(q.buf[q.tail*CommandSize:], c[:])
	q.tail = (q.tail + 1) % q.size
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
	copy(c[:], q.buf[q.head*CommandSize:])
	return true
}

// Pop dequeues the oldest command into c, reporting false when empty.
func (q *SQ) Pop(c *Command) bool {
	if q.Empty() {
		return false
	}
	copy(c[:], q.buf[q.head*CommandSize:])
	q.head = (q.head + 1) % q.size
	return true
}

func (q *SQ) String() string {
	return fmt.Sprintf("SQ%d{%d/%d}", q.ID, q.Len(), q.size)
}

// CQ is an NVMe completion queue ring with the phase-tag protocol: the
// producer writes entries whose phase bit flips every ring wrap, so the
// consumer can detect new entries without a producer-updated index —
// the basis of interrupt-free busy polling.
type CQ struct {
	ID     uint16
	buf    []byte // the ring, allocated by the first Push
	size   uint32
	head   uint32 // consumer index (doorbell)
	tail   uint32 // producer index
	prodPh bool   // phase the producer writes
	consPh bool   // phase the consumer expects
	OnPost func() // optional hook (interrupt model), called once per accepted post; nil = polled
}

// NewCQ creates a completion queue with the given entry count. Like an
// SQ's, the ring's memory is taken by the first Push.
func NewCQ(id uint16, entries uint32) *CQ {
	if entries < 2 {
		panic("nvme: CQ needs at least 2 entries")
	}
	return &CQ{ID: id, size: entries, prodPh: true, consPh: true}
}

// Len returns the number of unconsumed entries.
func (q *CQ) Len() uint32 { return (q.tail + q.size - q.head) % q.size }

// Full reports whether a Push would overrun the consumer.
func (q *CQ) Full() bool { return (q.tail+1)%q.size == q.head }

// Push posts a completion entry; the producer stamps the current phase.
// It reports false if the queue is full (a fatal condition for a real
// controller, surfaced to callers so they can assert on it).
func (q *CQ) Push(e *Completion) bool {
	if q.Full() {
		return false
	}
	if q.buf == nil {
		q.buf = make([]byte, q.size*CompletionSize)
	}
	var entry Completion
	copy(entry[:], e[:])
	entry.SetPhase(q.prodPh)
	copy(q.buf[q.tail*CompletionSize:], entry[:])
	q.tail = (q.tail + 1) % q.size
	if q.tail == 0 {
		q.prodPh = !q.prodPh
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
	var e Completion
	copy(e[:], q.buf[q.head*CompletionSize:])
	return e.Phase() == q.consPh
}

// Pop consumes the next completion entry, reporting false when none is
// visible. Popping advances the consumer head (the CQ doorbell).
func (q *CQ) Pop(e *Completion) bool {
	if q.head == q.tail {
		return false // the poller's common case: no entry to copy out
	}
	copy(e[:], q.buf[q.head*CompletionSize:])
	if e.Phase() != q.consPh {
		return false
	}
	q.head = (q.head + 1) % q.size
	if q.head == 0 {
		q.consPh = !q.consPh
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
