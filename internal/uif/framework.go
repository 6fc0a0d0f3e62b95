// Package uif is the userspace I/O function framework (the paper's ~1100
// LoC C++ library, Section III-D): it owns the notify-queue mappings and
// io_uring rings, runs adaptive polling threads (busy-poll while active,
// epoll-style sleep when idle), parses incoming NVMe commands, gives
// handlers zero-copy access to VM data pages, and exposes each request as
// an event to the storage-function handler.
//
// One framework instance (one "process") can serve several VMs at once:
// each Attach adds an attachment that all polling threads service,
// lowering the CPU cost of busy polling as the paper describes.
package uif

import (
	"fmt"
	"sort"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/bufpool"
	"nvmetro/internal/core"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Costs models framework overheads.
type Costs struct {
	Poll        sim.Duration // one empty poll sweep
	Parse       sim.Duration // command parse + event dispatch
	Complete    sim.Duration // NCQ post
	WakeLatency sim.Duration // epoll wake-up delay after idle sleep
	IdlePark    sim.Duration // spin budget before sleeping
}

// DefaultCosts returns the calibrated framework cost model.
func DefaultCosts() Costs {
	return Costs{
		Poll:        300 * sim.Nanosecond,
		Parse:       400 * sim.Nanosecond,
		Complete:    250 * sim.Nanosecond,
		WakeLatency: 4 * sim.Microsecond,
		IdlePark:    50 * sim.Microsecond,
	}
}

// Handler is a storage function's request logic (the paper's uif::work).
// Work runs on a polling thread in scheduler context and blocks nowhere: it
// charges CPU with th.ExecFunc (continuing in req.Then) and reaches the
// backend through the request's SubmitBackend*Then helpers. Every step —
// Work, a Then continuation, a ring completion's andThen, a Defer step —
// hands the request back to the polling thread exactly once, now or from a
// later continuation of its own: Done completes it in the sweep that has it,
// CompleteAsync queues the completion for a later sweep, Pend leaves the
// completion to CompleteAsync from another context, and a SubmitBackend*Then
// call hands it back once the I/O is submitted.
type Handler interface {
	Work(th *sim.Thread, req *Request)
}

// Step is a handler continuation run on a polling thread.
type Step func(th *sim.Thread, req *Request)

// RingStep is a handler continuation run when a ring I/O of the request
// completes, in the sweep that reaps it.
type RingStep func(th *sim.Thread, req *Request, st nvme.Status)

// Request is one exported command plus accessors for its data pages in the
// VM's memory. An attachment recycles its requests once their completion is
// posted.
type Request struct {
	Cmd nvme.Command
	Tag uint16
	att *Attachment

	// State a handler carries across the request's continuations: cleared
	// when the request is reused.
	Buf   []byte   // the payload buffer
	Token uint64   // e.g. a cache fill or write window
	Start sim.Time // when the handler took the request

	segs   []nvme.Segment
	walked bool
	entry  [8]byte

	bufs   [][]byte // handed out by Buffer, taken back when the completion is posted
	bufArr [2][]byte

	pl      *poller // the polling thread the request is stepping on, nil between steps
	next    Step    // the Then continuation
	runNext func()  // runs next; bound once
}

// attState is the liveness state of one attachment's servicing.
type attState int

// Attachment liveness states.
const (
	// attHealthy: the poll loop services this attachment normally.
	attHealthy attState = iota
	// attWedged: the poll loop is stalled — alive but making no progress.
	attWedged
	// attDead: the poll loop died; all in-process state is lost and the
	// attachment never services anything again. Terminal.
	attDead
)

func (s attState) String() string {
	switch s {
	case attHealthy:
		return "healthy"
	case attWedged:
		return "wedged"
	case attDead:
		return "dead"
	}
	return fmt.Sprintf("AttState(%d)", int(s))
}

// Attachment binds one VM's notify queues to a handler, with an optional
// io_uring for backend I/O.
type Attachment struct {
	f       *Framework
	nq      *core.NotifyQueues
	handler Handler
	ring    *blockdev.URing
	shift   uint8

	waits     []ringWait   // ring waits by slot
	freeSlots []uint32     // free slots of waits
	deferred  []deferred   // popped from deferHead
	backlog   []backendIO  // popped from backlogHead
	bufs      bufpool.Pool // request payload buffers (Request.Buffer)
	free      []*Request   // requests whose completion was posted

	deferHead, backlogHead int

	inj          *fault.Injector
	state        attState
	wedgeUntil   sim.Time
	wedgeForever bool

	// Stats
	Events, AsyncDone uint64
	progress          uint64
	CrashFaults       uint64 // injected poll-loop crashes
	WedgeFaults       uint64 // injected poll-loop stalls
}

// A ring I/O's UserData is its wait's slot in the low slotBits and the
// framework-wide submission id above: a CQE matches a wait only if both do.
const slotBits = 20

// ringWait is one ring I/O in flight; a zero id is a free slot.
type ringWait struct {
	id      uint64
	req     *Request // the guest request waiting, nil for host-side backend I/O
	andThen RingStep // the request's continuation; nil completes it with the status
	// io is a host-side wait's callback (SubmitBackendIO): Kill fails those
	// waits instead of stranding the caller. Guest-request waits are dropped
	// on Kill — the router's reconciliation owns those commands.
	io func(st nvme.Status)
}

// deferred is work queued for a polling thread, in one queue to keep the
// order: fn; else step handed req; else the completion of req with st
// (CompleteAsync).
type deferred struct {
	fn   func()
	step Step
	req  *Request
	st   nvme.Status
}

// backendIO is one queued SubmitBackendIO not yet submitted to the ring.
type backendIO struct {
	op     blockdev.BioOp
	sector uint64
	data   []byte
	io     func(st nvme.Status)
}

// Framework runs the polling threads.
type Framework struct {
	env    *sim.Env
	costs  Costs
	atts   []*Attachment
	wake   *sim.Cond
	asleep int

	// nextRingID is framework-global so ring UserData values stay unique
	// across attachment generations: a restarted attachment sharing its
	// predecessor's ring must never reap a stale CQE into a fresh wait.
	nextRingID uint64

	// Stats
	Polls, Wakes   uint64
	StaleRingComps uint64 // CQEs reaped with no matching wait (dead owner)
}

// NewFramework creates a framework with the given polling threads.
func NewFramework(env *sim.Env, costs Costs, threads []*sim.Thread) *Framework {
	f := &Framework{env: env, costs: costs, wake: sim.NewCond(env)}
	for _, th := range threads {
		env.After(0, newPoller(f, th).stepSweep)
	}
	return f
}

// Attach registers a VM's notify queues with a handler. ring may be nil for
// handlers that never touch the backend directly.
func (f *Framework) Attach(nq *core.NotifyQueues, handler Handler, ring *blockdev.URing) *Attachment {
	att := &Attachment{f: f, nq: nq, handler: handler, ring: ring, shift: nq.BlockShift()}
	nq.OnNotify = f.hint
	if ring != nil {
		ring.OnComp = f.hint
	}
	f.atts = append(f.atts, att)
	return att
}

// hint wakes a sleeping polling thread (edge-triggered eventfd semantics).
func (f *Framework) hint() {
	if f.asleep > 0 {
		f.wake.Signal(nil)
	}
}

// poller is one polling thread's poll loop, a reactor: its sweeps are a
// resumable walk over the attachments and, in each, over four sources —
// deferred work, queued backend I/O, ring completions, exported commands —
// and everything that takes the thread's time is a continuation on the DES
// callback tier: CPU charged with Thread.ExecFunc, ring and block submissions
// in their continuation forms, idle rounds with Thread.SpinFunc, the idle park
// with Cond.WaitFunc and the wake latency with Env.After. Each of them pushes
// its wake where the process it replaces pushed its own.
//
// The loop is
//
//	for {
//		did := sweep every attachment
//		if did { continue }
//		if idle >= IdlePark { park; sleep WakeLatency; continue }
//		spin on, up to the rest of the idle budget
//	}
//
// and a sweep of one attachment, in order: run each deferred item, submit
// each queued backend I/O, reap up to 32 ring completions and finish each,
// then take up to 32 exported commands (one fault draw each, when an injector
// is armed), charging Parse and handing each to the handler; a request
// completed on the spot is charged Complete in the same sweep.
type poller struct {
	f    *Framework
	th   *sim.Thread
	idle sim.Duration

	// The walk's position.
	atts    []*Attachment // as the sweep found them: one attached later waits
	ai      int
	att     *Attachment
	phase   phase
	did     bool // the sweep found work
	attDid  bool // the attachment's sweep found work
	cqes    []blockdev.URingCQE
	ci      int
	taken   int      // commands taken in this attachment's sweep
	cur     *Request // the request being stepped, or completed
	st      nvme.Status
	item    item // what finishing the current item books
	waiting bool // a continuation will resume the walk
	walking bool // the walk is on the stack
	once    func()

	// Idle spin.
	parkAt sim.Time // end of the idle budget
	rounds int      // rounds credited by the spin in progress

	// The loop's steps, bound once.
	stepSweep, stepResume, stepReaped, stepCompleted func()
	stepWoken, stepSlept, stepSpun                   func()
	stepLook                                         func(int) sim.Time
}

// phase is where an attachment's sweep stands.
type phase uint8

const (
	phAttach   phase = iota // state check of the next attachment
	phDeferred              // deferred work
	phBacklog               // queued backend I/O
	phReap                  // reaping the ring
	phCQE                   // finishing reaped completions
	phNSQ                   // exported commands
)

// item is the bookkeeping due when the item in hand finishes.
type item uint8

const (
	itemNone    item = iota
	itemQueued       // a deferred item or queued backend I/O
	itemCQE          // a reaped completion
	itemCommand      // an exported command
)

func newPoller(f *Framework, th *sim.Thread) *poller {
	p := &poller{f: f, th: th}
	p.stepSweep, p.stepResume, p.stepReaped, p.stepCompleted = p.sweep, p.resume, p.reaped, p.completed
	p.stepWoken, p.stepSlept, p.stepSpun, p.stepLook = p.woken, p.slept, p.spun, p.poll
	return p
}

// sweep starts a sweep over every attachment.
func (p *poller) sweep() {
	p.atts, p.ai, p.phase, p.did = p.f.atts, 0, phAttach, false
	p.resume()
}

// resume goes on with the walk: every continuation of the loop ends here. A
// step that hands back before returning to the walk finds it on the stack.
func (p *poller) resume() {
	p.waiting = false
	if p.walking {
		return
	}
	p.walking = true
	for !p.waiting {
		p.advance()
	}
	p.walking = false
}

// advance takes the walk one step, which may suspend it.
func (p *poller) advance() {
	if p.cur != nil {
		// A handed-back request to complete now (Done or a ring wait with no
		// continuation).
		p.complete()
		return
	}
	if p.item != itemNone {
		p.finishItem()
		return
	}
	f, att := p.f, p.att
	switch p.phase {
	case phAttach:
		if p.ai == len(p.atts) {
			p.endSweep()
			return
		}
		att = p.atts[p.ai]
		p.att, p.attDid, p.taken = att, false, 0
		switch att.state {
		case attDead:
			p.nextAttachment()
			return
		case attWedged:
			if att.wedgeForever || f.env.Now() < att.wedgeUntil {
				p.nextAttachment()
				return
			}
			att.state = attHealthy
		}
		p.phase = phDeferred
	case phDeferred:
		// Deferred work queued from non-thread contexts (e.g. enclave jobs).
		if len(att.deferred) == 0 {
			p.phase = phBacklog
			return
		}
		d := pop(&att.deferred, &att.deferHead)
		p.item = itemQueued
		switch {
		case d.fn != nil:
			d.fn()
		case d.step != nil:
			p.hand(d.req)
			d.step(p.th, d.req)
		default:
			p.cur, p.st = d.req, d.st
		}
	case phBacklog:
		// Host-side backend I/O queued out-of-band (resync legs).
		if len(att.backlog) == 0 {
			p.phase = phReap
			return
		}
		b := pop(&att.backlog, &att.backlogHead)
		p.item = itemQueued
		p.waiting = true
		att.submitRing(p.th, b.op, b.sector, b.data, ringWait{io: b.io}, p.stepResume)
	case phReap:
		// Backend io_uring completions.
		p.phase = phNSQ
		if att.ring != nil && att.ring.Pending() > 0 {
			p.waiting = true
			p.cqes, p.ci = att.ring.Reap(p.th, p.cqes[:0], 32, p.stepReaped), 0
		}
	case phCQE:
		if p.ci == len(p.cqes) {
			p.phase = phNSQ
			return
		}
		cqe := p.cqes[p.ci]
		p.ci++
		slot, id := cqe.UserData&(1<<slotBits-1), cqe.UserData>>slotBits
		if slot >= uint64(len(att.waits)) || att.waits[slot].id != id {
			// A CQE whose owner died: the wait table was cleared by Kill,
			// or the I/O belonged to a previous attachment generation
			// sharing this ring.
			f.StaleRingComps++
			return
		}
		w := att.waits[slot]
		att.waits[slot] = ringWait{}
		att.freeSlots = append(att.freeSlots, uint32(slot))
		p.item = itemCQE
		switch {
		case w.andThen != nil:
			p.hand(w.req)
			w.andThen(p.th, w.req, cqe.Status)
		case w.req != nil:
			p.cur, p.st = w.req, cqe.Status
		case w.io != nil:
			w.io(cqe.Status)
		}
	case phNSQ:
		// New requests from the router.
		if p.taken == 32 {
			p.nextAttachment()
			return
		}
		if att.inj != nil && att.nq.Pending() > 0 {
			// One liveness draw per command about to be serviced; a crash
			// or wedge strands the command (and everything behind it) in
			// the NSQ — exactly what the watchdog must detect.
			d := att.inj.Decide(fault.ClassOther)
			if d.Crash {
				att.CrashFaults++
				att.Kill()
				p.nextAttachment()
				return
			}
			if d.Wedge {
				att.WedgeFaults++
				att.Wedge(d.WedgeFor)
				p.nextAttachment()
				return
			}
		}
		req := att.takeRequest()
		tag, ok := att.nq.Pop(&req.Cmd)
		if !ok {
			att.free = append(att.free, req)
			p.nextAttachment()
			return
		}
		p.taken++
		req.Tag = tag
		p.item = itemCommand
		p.hand(req)
		p.th.ExecFunc(f.costs.Parse, req.runNext)
	}
}

// hand gives req to a handler step: the walk waits for the hand-back.
func (p *poller) hand(req *Request) {
	req.pl = p
	p.waiting = true
}

// handBack is req's step handing it back, with st to complete it with now
// when complete is set.
func (r *Request) handBack(complete bool, st nvme.Status) {
	p := r.pl
	if p == nil {
		panic("uif: request handed back twice")
	}
	r.pl = nil
	if complete {
		p.cur, p.st = r, st
	}
	p.resume()
}

// finishItem books the item just finished.
func (p *poller) finishItem() {
	if p.item == itemCQE {
		p.att.AsyncDone++
	}
	if p.item != itemCommand { // a command's progress is booked as it is taken
		p.att.progress++
	}
	p.item, p.attDid = itemNone, true
}

// reaped walks the completions Reap took once it is charged.
func (p *poller) reaped() {
	p.phase = phCQE
	p.resume()
}

func (p *poller) nextAttachment() {
	if p.attDid {
		p.did = true
	}
	p.ai++
	p.phase = phAttach
}

// complete posts the completion of p.cur with p.st, charging Complete: the
// one release point of a request, so a handler has no release call to
// forget, and the rule a handler must keep is that nothing it started still
// reads or writes a request buffer once it completes the request.
func (p *poller) complete() {
	if p.cur.att.state == attDead {
		// A dead process posts nothing; the router's reconciliation owns
		// the command. Its buffers die with it: backend I/O it left in
		// flight may still land in them.
		p.cur = nil
		return
	}
	p.waiting = true
	p.th.ExecFunc(p.f.costs.Complete, p.stepCompleted)
}

func (p *poller) completed() {
	req := p.cur
	p.cur = nil
	req.att.posted(req, p.st)
	p.resume()
}

// posted posts req's completion and recycles it with its buffers.
func (att *Attachment) posted(req *Request, st nvme.Status) {
	if !att.nq.Complete(req.Tag, st) {
		panic("uif: NCQ full")
	}
	for _, b := range req.bufs {
		if bufpool.Poison {
			b = b[:cap(b)]
			for i := range b {
				b[i] = 0xDB
			}
		}
		att.bufs.Put(b)
	}
	*req = Request{att: att, segs: req.segs[:0], runNext: req.runNext}
	if bufpool.Poison {
		for i := range req.Cmd {
			req.Cmd[i] = 0xDB
		}
		req.Tag = 0xDBDB
	}
	att.free = append(att.free, req)
}

// takeRequest returns a recycled request, or a new one.
func (att *Attachment) takeRequest() *Request {
	if n := len(att.free); n > 0 {
		r := att.free[n-1]
		att.free = att.free[:n-1]
		return r
	}
	r := &Request{att: att}
	r.runNext = r.step
	return r
}

// endSweep is the end of a sweep over every attachment: sweep again, park,
// or spin.
func (p *poller) endSweep() {
	f := p.f
	if p.once != nil {
		then := p.once
		p.once = nil
		p.waiting = true
		then()
		return
	}
	f.Polls++
	if p.did {
		p.idle = 0
		p.sweep()
		return
	}
	p.waiting = true
	// The park decision must come directly after an empty sweep, with no
	// intervening virtual time: work arriving during a spin round fires the
	// hint while we are not yet asleep, so the next sweep — not the sleep —
	// has to pick it up (lost-wakeup avoidance).
	if p.idle >= f.costs.IdlePark {
		// Adaptive polling: fall back to OS-assisted waiting.
		f.asleep++
		f.wake.WaitFunc(p.stepWoken)
		return
	}
	// Spin on, up to the rest of the idle budget. The sweep may have taken
	// time all the same — reaping ring completions nobody owns any more
	// (StaleRingComps) is charged but is not work — and whatever was queued
	// meanwhile on a source it had already passed went unseen, and unhinted
	// since the poller is awake: SpinFunc's first look, on entry, sees it.
	p.parkAt = f.env.Now().Add(f.costs.IdlePark - p.idle)
	p.rounds = 0
	p.th.SpinFunc(f.costs.Poll, p.stepLook, p.stepSpun)
}

func (p *poller) woken() {
	p.f.asleep--
	p.f.Wakes++
	p.f.env.After(p.f.costs.WakeLatency, p.stepSlept)
}

func (p *poller) slept() {
	p.idle = 0
	p.sweep()
}

// spun is the end of an idle spin: the sweep due at the boundary it ended on
// is the loop's next one, which counts itself.
func (p *poller) spun() {
	p.f.Polls--
	p.idle += sim.Duration(p.rounds) * p.f.costs.Poll
	p.sweep()
}

// poll is a sweep reduced to looking (see sim.Thread.Spin). The sweeps it
// stands in for are polls like any other, and are counted as the rounds
// complete: other parties read Polls mid-spin. Anything a sweep would service
// or be charged for says "look" — deferred work, queued backend I/O, a ring
// completion even if its owner is gone, an exported command (which, with a
// fault injector armed, also costs a draw), a stall that has run out — and
// what a sweep can find by the clock alone bounds the spin: the idle budget
// running out, a stalled attachment's wedge expiring.
func (p *poller) poll(rounds int) sim.Time {
	f := p.f
	f.Polls += uint64(rounds)
	p.rounds += rounds
	now, until := f.env.Now(), p.parkAt
	for _, att := range f.atts {
		switch att.state {
		case attDead:
			continue
		case attWedged:
			if att.wedgeForever {
				continue
			}
			if now < att.wedgeUntil {
				until = min(until, att.wedgeUntil)
				continue
			}
			return 0 // the stall has run out: the sweep turns it healthy
		}
		if len(att.deferred) > 0 || len(att.backlog) > 0 || att.nq.Pending() > 0 ||
			att.ring != nil && att.ring.Pending() > 0 {
			return 0
		}
	}
	return until
}

// pop takes a non-empty queue's head by index, so the queue keeps its array
// and reuses it from the start once drained. The head lives with the queue:
// every polling thread drains it, interleaved at its continuations.
func pop[T any](q *[]T, head *int) T {
	v := (*q)[*head]
	var zero T
	(*q)[*head] = zero
	if *head++; *head == len(*q) {
		*q, *head = (*q)[:0], 0
	}
	return v
}

// push appends v to a queue popped from head. A queue that never drains —
// work keeps arriving while a sweep works through it — must not keep its
// consumed prefix: when the array is full and at least half of it consumed,
// the live entries slide to the front instead of the array growing.
func push[T any](q *[]T, head *int, v T) {
	if h := *head; h > 0 && len(*q) == cap(*q) && h >= len(*q)/2 {
		n := copy(*q, (*q)[h:])
		clear((*q)[n:])
		*q, *head = (*q)[:n], 0
	}
	*q = append(*q, v)
}

// Progress returns a counter that advances whenever the poll loop services
// anything for this attachment — the watchdog's heartbeat signal. It is
// observed externally; a dead or wedged loop cannot fake it.
func (att *Attachment) Progress() uint64 { return att.progress }

// SetFaultInjector arms inj as this attachment's per-command liveness
// fault site (UIFCrash/UIFWedge rules). nil disarms.
func (att *Attachment) SetFaultInjector(inj *fault.Injector) { att.inj = inj }

// Kill terminates the attachment's servicing as a process death would:
// state is lost, queued work is abandoned, and nothing is ever serviced
// or completed again. Host-side backend waits (SubmitBackendIO) fail with
// SCPathError so synchronous callers (the resync engine) unblock;
// guest-request waits are dropped — the router's reconciliation decides
// their fate. Safe from any simulation context; idempotent.
func (att *Attachment) Kill() {
	if att.state == attDead {
		return
	}
	att.state = attDead
	var fail []func(st nvme.Status)
	for _, b := range att.backlog[att.backlogHead:] {
		if b.io != nil {
			fail = append(fail, b.io)
		}
	}
	att.backlog, att.backlogHead = nil, 0
	var waits []ringWait
	for _, w := range att.waits {
		if w.id != 0 && w.io != nil {
			waits = append(waits, w)
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i].id < waits[j].id })
	for _, w := range waits {
		fail = append(fail, w.io)
	}
	att.waits, att.freeSlots = nil, nil
	att.deferred, att.deferHead = nil, 0
	for _, fn := range fail {
		// Deliver from scheduler context so Kill itself never blocks.
		att.f.env.After(0, func() { fn(nvme.SCPathError) })
	}
}

// Wedge stalls the attachment's servicing for d (0 = until killed). The
// process is alive — in-flight state is kept — but nothing moves until
// the stall expires. No-op on a dead attachment.
func (att *Attachment) Wedge(d sim.Duration) {
	if att.state == attDead {
		return
	}
	att.state = attWedged
	if d > 0 {
		att.wedgeUntil = att.f.env.Now().Add(d)
		att.wedgeForever = false
		att.f.env.After(d, att.f.hint)
	} else {
		att.wedgeForever = true
	}
}

// queue adds d to the deferred work. Work deferred to a dead attachment is
// silently dropped — the process it would have run in no longer exists.
func (att *Attachment) queue(d deferred) {
	if att.state == attDead {
		return
	}
	push(&att.deferred, &att.deferHead, d)
	att.f.hint()
}

// submitRing installs w in the ring-completion table and submits the I/O;
// then runs once it is submitted.
func (att *Attachment) submitRing(th *sim.Thread, op blockdev.BioOp, sector uint64, data []byte, w ringWait, then func()) {
	att.f.nextRingID++
	w.id = att.f.nextRingID
	var slot uint32
	if n := len(att.freeSlots); n > 0 {
		slot = att.freeSlots[n-1]
		att.freeSlots = att.freeSlots[:n-1]
	} else {
		slot = uint32(len(att.waits))
		att.waits = append(att.waits, ringWait{})
	}
	att.waits[slot] = w
	att.ring.Submit(th, op, sector, data, w.id<<slotBits|uint64(slot), then)
}

// SubmitBackendIO queues an arbitrary backend ring I/O that is not tied
// to a guest request — the resync engine uses it to read the secondary
// and replay dirty chunks through the same ring (and ordering domain) as
// the foreground mirror writes. Safe from any simulation context; io runs
// on a polling thread when the I/O completes — or, when the attachment dies
// (Kill) before the I/O finishes, from scheduler context with SCPathError.
func (att *Attachment) SubmitBackendIO(op blockdev.BioOp, sector uint64, data []byte, io func(st nvme.Status)) {
	if att.state == attDead {
		if io != nil {
			att.f.env.After(0, func() { io(nvme.SCPathError) })
		}
		return
	}
	push(&att.backlog, &att.backlogHead, backendIO{op: op, sector: sector, data: data, io: io})
	att.f.hint()
}

// --- Request accessors ----------------------------------------------------

// NBytes returns the request's transfer size.
func (r *Request) NBytes() uint32 { return r.Cmd.Blocks() << r.att.shift }

// Sector returns the starting 512-byte sector for backend io_uring I/O.
func (r *Request) Sector() uint64 { return r.Cmd.SLBA() << r.att.shift / blockdev.SectorSize }

// segments resolves (and caches) the command's PRP chain.
func (r *Request) segments() ([]nvme.Segment, error) {
	if !r.walked {
		segs, err := nvme.AppendPRP(r.segs[:0], &r.entry, r.att.nq.Mem(), r.Cmd.PRP1(), r.Cmd.PRP2(), r.NBytes())
		if err != nil {
			return nil, err
		}
		r.segs, r.walked = segs, true
	}
	return r.segs, nil
}

// Buffer returns an n-byte buffer that belongs to the request: it comes from
// the attachment's free list and goes back when the request's completion is
// posted. Its contents are unspecified.
func (r *Request) Buffer(n int) []byte {
	if r.bufs == nil {
		r.bufs = r.bufArr[:0]
	}
	b := r.att.bufs.Get(n)
	r.bufs = append(r.bufs, b)
	return b
}

// ReadData copies the request's data pages out of the VM into buf.
func (r *Request) ReadData(buf []byte) error {
	segs, err := r.segments()
	if err != nil {
		return err
	}
	return nvme.ReadSegments(r.att.nq.Mem(), segs, buf)
}

// WriteData copies buf into the request's data pages in the VM (used after
// in-place decryption).
func (r *Request) WriteData(buf []byte) error {
	segs, err := r.segments()
	if err != nil {
		return err
	}
	return nvme.WriteSegments(r.att.nq.Mem(), segs, buf)
}

// Then returns a continuation that runs step on the request's polling
// thread — for th.ExecFunc in a handler step. It is bound once, so handing
// it on allocates nothing; a request has one Then pending at a time.
func (r *Request) Then(step Step) func() {
	r.next = step
	return r.runNext
}

// step runs the pending Then continuation — or, for a command just charged
// Parse, the handler.
func (r *Request) step() {
	th := r.pl.th
	if next := r.next; next != nil {
		r.next = nil
		next(th, r)
		return
	}
	r.att.Events++
	r.att.progress++
	r.Start = r.att.f.env.Now()
	r.att.handler.Work(th, r)
}

// Done hands the request back from a step and completes it with st in the
// sweep that has it.
func (r *Request) Done(st nvme.Status) { r.handBack(true, st) }

// Pend hands the request back from a step with its completion left to a
// later CompleteAsync.
func (r *Request) Pend() { r.handBack(false, 0) }

// CompleteAsync finishes an async request from any simulation context: the
// completion is posted by a later sweep. Called from a step, it hands the
// request back too.
func (r *Request) CompleteAsync(st nvme.Status) {
	r.att.queue(deferred{req: r, st: st})
	if r.pl != nil {
		r.handBack(false, 0)
	}
}

// Defer runs step on a polling thread as a step of the request; safe from
// any simulation context.
func (r *Request) Defer(step Step) {
	r.att.queue(deferred{step: step, req: r})
}

// SubmitBackendWriteThen writes data to the backend at the request's
// location via io_uring — the paper's queue_writev path — and hands the
// request back once the write is submitted. When the write completes,
// andThen runs; a nil andThen completes the request with the write's status.
func (r *Request) SubmitBackendWriteThen(th *sim.Thread, data []byte, andThen RingStep) {
	r.submit(th, blockdev.BioWrite, data, andThen)
}

// SubmitBackendReadThen reads the request's range from the backend into buf
// via io_uring, hands the request back once the read is submitted and runs
// andThen when the read completes — the cache storage function's miss path,
// which must see the data before completing the guest request so it can
// install the block into the host cache.
func (r *Request) SubmitBackendReadThen(th *sim.Thread, buf []byte, andThen RingStep) {
	r.submit(th, blockdev.BioRead, buf, andThen)
}

func (r *Request) submit(th *sim.Thread, op blockdev.BioOp, data []byte, andThen RingStep) {
	p := r.pl
	r.pl = nil
	r.att.submitRing(th, op, r.Sector(), data, ringWait{req: r, andThen: andThen}, p.stepResume)
}
