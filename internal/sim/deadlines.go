package sim

import "fmt"

// Deadlines serves per-attempt timeouts for a driver that gives every
// attempt the same Timeout: a FIFO of (id, generation, instant) in
// submission order — which is then expiry order — and at most one armed
// timer, for the head. A driver that arms one After closure per attempt
// instead keeps whatever the closure captures (the command, and through it
// the payload) reachable until the timeout would have fired, long after the
// command completed, and pays one far-future event per command. Nothing a
// Deadlines timer can reach refers to a command: the owner resolves
// (id, gen) against its own in-flight table when asked.
//
// An expiry keeps the place in the event order the per-attempt closure had:
// Add reserves the sequence number After would have taken, and the timer
// for an entry is queued under it. So an expiry still runs before anything
// scheduled after the attempt was submitted for the same instant — the
// attempt's own completion included: a completion landing on the very
// nanosecond of its deadline loses, as it always did. (Entries due at one
// instant expire together, at the first one's place.)
//
// Settled entries are dropped from the head whenever one is added, so the
// queue spans the oldest attempt still awaited to the newest, not the last
// Timeout's worth of submissions. An entry behind a live head stays until
// the head settles or expires.
type Deadlines struct {
	env     *Env
	live    func(id, gen uint32) bool // is that attempt still awaited?
	expire  func(id, gen uint32)      // a live attempt reached its instant
	q       []deadline
	head    int  // q[:head] is consumed
	armedAt Time // instant of the earliest pending timer, Never if none
}

type deadline struct {
	id, gen uint32
	at      Time
	seq     uint64 // the entry's place among events at the same instant
}

// NewDeadlines returns an empty queue. live reports whether attempt gen of
// command id is still awaited (false once it completed, was aborted or was
// superseded by a resend); expire is called in scheduler context, at
// exactly the instant given to Add, for every entry still live then.
func NewDeadlines(env *Env, live func(id, gen uint32) bool, expire func(id, gen uint32)) *Deadlines {
	return &Deadlines{env: env, live: live, expire: expire, armedAt: Never}
}

// Len returns the number of queued entries, settled ones behind a live head
// included.
func (d *Deadlines) Len() int { return len(d.q) - d.head }

// Add queues a deadline at instant at for attempt gen of command id.
// Instants normally arrive in nondecreasing order; an earlier one — the
// owner's Timeout was shortened while attempts were outstanding — is put in
// its place and the timer armed for it.
func (d *Deadlines) Add(id, gen uint32, at Time) {
	if at < d.env.now {
		panic(fmt.Sprintf("sim: deadline in the past (%v < %v)", at, d.env.now))
	}
	d.trim()
	d.env.seq++
	d.q = enqueue(d.q, &d.head, deadline{id, gen, at, d.env.seq})
	for i := len(d.q) - 1; i > d.head && d.q[i-1].at > at; i-- {
		d.q[i-1], d.q[i] = d.q[i], d.q[i-1]
	}
	d.arm()
}

// trim drops settled entries from the head.
func (d *Deadlines) trim() {
	for d.head < len(d.q) && !d.live(d.q[d.head].id, d.q[d.head].gen) {
		d.head++
	}
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
}

// arm makes sure a timer is pending at the head's instant. A timer already
// pending for a later instant cannot be cancelled; it finds itself
// superseded when it fires.
func (d *Deadlines) arm() {
	if d.head < len(d.q) && d.q[d.head].at < d.armedAt {
		h := &d.q[d.head]
		d.armedAt = h.at
		d.env.q.push(d.env.now, h.at, h.seq, payload{fn: d.timer})
	}
}

func (d *Deadlines) timer() {
	now := d.env.Now()
	if now != d.armedAt {
		return // superseded: an earlier timer ran since and re-armed
	}
	d.armedAt = Never
	for d.head < len(d.q) && d.q[d.head].at <= now {
		ent := d.q[d.head]
		d.head++
		if d.live(ent.id, ent.gen) {
			d.expire(ent.id, ent.gen)
		}
	}
	d.trim()
	d.arm()
}
