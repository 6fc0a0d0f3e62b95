package uif

// The process form of the UIF framework, kept as the reference the reactor is
// held to (TestReactorLockstepWithProcessLoop): one process per polling
// thread, each sweep a loop that blocks on its thread's core, on the ring and
// on the handler, and handlers that block too. Ring I/O reaches the ring's
// continuation forms through sim.Proc.Await, which costs no event.

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

// refHandler is a storage function's request logic (the paper's uif::work).
// Return async=false to complete immediately with status; return async=true
// and finish later via req.CompleteAsync (e.g. after an io_uring write).
type refHandler interface {
	Work(p *sim.Proc, th *sim.Thread, req *refRequest) (async bool, status nvme.Status)
}

// refRequest is one exported command plus accessors for its data pages in the
// VM's memory.
type refRequest struct {
	Cmd nvme.Command
	Tag uint16
	att *refAttachment

	segs []nvme.Segment

	bufs   [][]byte // handed out by Buffer, taken back when the completion is posted
	bufArr [2][]byte
}

// refAttachment binds one VM's notify queues to a handler, with an optional
// io_uring for backend I/O.
type refAttachment struct {
	f       *refFramework
	nq      *core.NotifyQueues
	handler refHandler
	ring    *blockdev.URing
	shift   uint8

	pendingRing map[uint64]refRingWait
	refDeferred []refDeferred  // popped from deferHead
	backlog     []refBackendIO // popped from backlogHead
	bufs        bufpool.Pool   // request payload buffers (refRequest.Buffer)

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

type refRingWait struct {
	req     *refRequest // the guest request waiting, nil for host-side backend I/O
	andThen func(p *sim.Proc, th *sim.Thread, st nvme.Status)
	// failable marks host-side backend waits (SubmitBackendIO): their
	// andThen tolerates running with nil p/th, so Kill can fail them
	// instead of stranding the caller. Guest-request waits are dropped on
	// Kill — the router's reconciliation owns those commands.
	failable bool
}

// refDeferred is work queued for a polling thread: fn, or if fn is nil the
// completion of req with st (CompleteAsync), in one queue to keep the order.
type refDeferred struct {
	fn  func(p *sim.Proc, th *sim.Thread)
	req *refRequest
	st  nvme.Status
}

// refBackendIO is one queued SubmitBackendIO not yet submitted to the ring.
type refBackendIO struct {
	op      blockdev.BioOp
	sector  uint64
	data    []byte
	andThen func(p *sim.Proc, th *sim.Thread, st nvme.Status)
}

// refFramework runs the polling threads.
type refFramework struct {
	env    *sim.Env
	costs  Costs
	atts   []*refAttachment
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

// newRefFramework creates a framework with the given polling threads.
func newRefFramework(env *sim.Env, costs Costs, threads []*sim.Thread) *refFramework {
	f := &refFramework{env: env, costs: costs, wake: sim.NewCond(env)}
	for i, th := range threads {
		th := th
		env.Go(fmt.Sprintf("uif-poll%d", i), func(p *sim.Proc) { f.pollLoop(p, th) })
	}
	return f
}

// Attach registers a VM's notify queues with a handler. ring may be nil for
// handlers that never touch the backend directly.
func (f *refFramework) Attach(nq *core.NotifyQueues, handler refHandler, ring *blockdev.URing) *refAttachment {
	att := &refAttachment{f: f, nq: nq, handler: handler, ring: ring, shift: nq.BlockShift(), pendingRing: make(map[uint64]refRingWait)}
	nq.OnNotify = f.hint
	if ring != nil {
		ring.OnComp = f.hint
	}
	f.atts = append(f.atts, att)
	return att
}

// hint wakes a sleeping polling thread (edge-triggered eventfd semantics).
func (f *refFramework) hint() {
	if f.asleep > 0 {
		f.wake.Signal(nil)
	}
}

func (f *refFramework) pollLoop(p *sim.Proc, th *sim.Thread) {
	idle, idler := sim.Duration(0), f.newSpinner(th)
	for {
		did := false
		for _, att := range f.atts {
			if f.sweep(p, th, att) {
				did = true
			}
		}
		f.Polls++
		if did {
			idle = 0
			continue
		}
		// The park decision must come directly after an empty sweep, with
		// no intervening virtual time: work arriving during a spin Exec
		// fires the hint while we are not yet asleep, so the next sweep —
		// not the sleep — has to pick it up (lost-wakeup avoidance).
		if idle >= f.costs.IdlePark {
			// Adaptive polling: fall back to OS-assisted waiting.
			f.asleep++
			f.wake.Wait()
			f.asleep--
			f.Wakes++
			p.Sleep(f.costs.WakeLatency)
			idle = 0
			continue
		}
		// Spin on, up to the rest of the idle budget.
		idle = idler.spin(p, idle)
	}
}

// refSpinner is the idle branch of one polling thread's pollLoop: busy-poll after
// an empty sweep, in rounds that sim.Thread.Spin runs without the thread's
// process until one of them has something to look at.
type refSpinner struct {
	f      *refFramework
	th     *sim.Thread
	look   func(int) sim.Time // s.poll, bound once
	parkAt sim.Time           // end of the idle budget
}

func (f *refFramework) newSpinner(th *sim.Thread) *refSpinner {
	s := &refSpinner{f: f, th: th}
	s.look = s.poll
	return s
}

// spin busy-polls after an empty sweep, idle being the time already spun
// since a sweep last found work, and returns the new idle time. The sweep may
// have taken time all the same — reaping ring completions nobody owns any more
// (StaleRingComps) is charged but is not work — and whatever was queued
// meanwhile on a source it had already passed went unseen, and unhinted since
// the poller is awake: Spin's first look, on entry, sees it.
func (s *refSpinner) spin(p *sim.Proc, idle sim.Duration) sim.Duration {
	f := s.f
	s.parkAt = f.env.Now().Add(f.costs.IdlePark - idle)
	n := s.th.Spin(p, f.costs.Poll, s.look)
	// The sweep due at the boundary Spin came back on is pollLoop's next one,
	// which counts itself.
	f.Polls--
	return idle + sim.Duration(n)*f.costs.Poll
}

// poll is pollLoop's pass over the attachments reduced to looking (see
// sim.Thread.Spin). The sweeps it stands in for are polls like any other, and
// are counted as the rounds complete: other processes read Polls mid-spin.
// Anything a sweep would service or be charged for says "look" — refDeferred
// work, queued backend I/O, a ring completion even if its owner is gone, an
// exported command (which, with a fault injector armed, also costs a draw), a
// stall that has run out — and what a sweep can find by the clock alone bounds
// the spin: the idle budget running out, a stalled attachment's wedge expiring.
func (s *refSpinner) poll(rounds int) sim.Time {
	f := s.f
	f.Polls += uint64(rounds)
	now, until := f.env.Now(), s.parkAt
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
		if len(att.refDeferred) > 0 || len(att.backlog) > 0 || att.nq.Pending() > 0 ||
			att.ring != nil && att.ring.Pending() > 0 {
			return 0
		}
	}
	return until
}

// sweep services one attachment once, reporting whether any work was found.
func (f *refFramework) sweep(p *sim.Proc, th *sim.Thread, att *refAttachment) bool {
	switch att.state {
	case attDead:
		return false
	case attWedged:
		if att.wedgeForever || f.env.Now() < att.wedgeUntil {
			return false
		}
		att.state = attHealthy
	}
	did := false

	// Deferred work queued from non-thread contexts (e.g. enclave jobs).
	for len(att.refDeferred) > 0 {
		if d := refPop(&att.refDeferred, &att.deferHead); d.fn != nil {
			d.fn(p, th)
		} else {
			att.complete(p, th, d.req, d.st)
		}
		att.progress++
		did = true
	}

	// Host-side backend I/O queued out-of-band (resync legs).
	for len(att.backlog) > 0 {
		b := refPop(&att.backlog, &att.backlogHead)
		att.submitRing(p, th, b.op, b.sector, b.data, refRingWait{andThen: b.andThen, failable: true})
		att.progress++
		did = true
	}

	// Backend io_uring completions.
	if att.ring != nil {
		var cqes []blockdev.URingCQE
		if att.ring.Pending() > 0 {
			p.Await(func(then func()) { cqes = att.ring.Reap(th, nil, 32, then) })
		}
		for _, cqe := range cqes {
			w, ok := att.pendingRing[cqe.UserData]
			if !ok {
				// A CQE whose owner died: the wait table was cleared by
				// Kill, or the I/O belonged to a previous attachment
				// generation sharing this ring.
				f.StaleRingComps++
				continue
			}
			delete(att.pendingRing, cqe.UserData)
			if w.andThen != nil {
				w.andThen(p, th, cqe.Status)
			} else if w.req != nil {
				att.complete(p, th, w.req, cqe.Status)
			}
			att.AsyncDone++
			att.progress++
			did = true
		}
	}

	// New requests from the router.
	var cmd nvme.Command
	for i := 0; i < 32; i++ {
		if att.inj != nil && att.nq.Pending() > 0 {
			// One liveness draw per command about to be serviced; a crash
			// or wedge strands the command (and everything behind it) in
			// the NSQ — exactly what the watchdog must detect.
			d := att.inj.Decide(fault.ClassOther)
			if d.Crash {
				att.CrashFaults++
				att.Kill()
				return did
			}
			if d.Wedge {
				att.WedgeFaults++
				att.Wedge(d.WedgeFor)
				return did
			}
		}
		tag, ok := att.nq.Pop(&cmd)
		if !ok {
			break
		}
		th.Exec(p, f.costs.Parse)
		att.Events++
		att.progress++
		req := &refRequest{Cmd: cmd, Tag: tag, att: att}
		async, st := att.handler.Work(p, th, req)
		if !async {
			att.complete(p, th, req, st)
		}
		did = true
	}
	return did
}

// refPop takes a non-empty queue's head by index, so the queue keeps its array
// and reuses it from the start once drained. The head lives with the queue:
// every polling thread drains it, interleaved at blocking calls.
func refPop[T any](q *[]T, head *int) T {
	v := (*q)[*head]
	var zero T
	(*q)[*head] = zero
	if *head++; *head == len(*q) {
		*q, *head = (*q)[:0], 0
	}
	return v
}

// complete posts req's completion and takes its buffers back: that is the
// one release point, so a handler has no release call to forget, and the
// rule a handler must keep is that nothing it started still reads or writes
// a request buffer once it completes the request.
func (att *refAttachment) complete(p *sim.Proc, th *sim.Thread, req *refRequest, st nvme.Status) {
	if att.state == attDead {
		// A dead process posts nothing; the router's reconciliation owns
		// the command. Its buffers die with it: backend I/O it left in
		// flight may still land in them.
		return
	}
	th.Exec(p, att.f.costs.Complete)
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
	req.bufs = nil
}

// Progress returns a counter that advances whenever the poll loop services
// anything for this attachment — the watchdog's heartbeat signal. It is
// observed externally; a dead or wedged loop cannot fake it.
func (att *refAttachment) Progress() uint64 { return att.progress }

// SetFaultInjector arms inj as this attachment's per-command liveness
// fault site (UIFCrash/UIFWedge rules). nil disarms.
func (att *refAttachment) SetFaultInjector(inj *fault.Injector) { att.inj = inj }

// Kill terminates the attachment's servicing as a process death would:
// state is lost, queued work is abandoned, and nothing is ever serviced
// or completed again. Host-side backend waits (SubmitBackendIO) fail with
// SCPathError so synchronous callers (the resync engine) unblock;
// guest-request waits are dropped — the router's reconciliation decides
// their fate. Safe from any simulation context; idempotent.
func (att *refAttachment) Kill() {
	if att.state == attDead {
		return
	}
	att.state = attDead
	var fail []func(p *sim.Proc, th *sim.Thread, st nvme.Status)
	for _, b := range att.backlog[att.backlogHead:] {
		if b.andThen != nil {
			fail = append(fail, b.andThen)
		}
	}
	att.backlog, att.backlogHead = nil, 0
	ids := make([]uint64, 0, len(att.pendingRing))
	for id := range att.pendingRing {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if w := att.pendingRing[id]; w.failable && w.andThen != nil {
			fail = append(fail, w.andThen)
		}
	}
	att.pendingRing = make(map[uint64]refRingWait)
	att.refDeferred, att.deferHead = nil, 0
	for _, fn := range fail {
		fn := fn
		// Failable callbacks tolerate nil p/th by contract; deliver from
		// scheduler context so Kill itself never blocks.
		att.f.env.After(0, func() { fn(nil, nil, nvme.SCPathError) })
	}
}

// Wedge stalls the attachment's servicing for d (0 = until killed). The
// process is alive — in-flight state is kept — but nothing moves until
// the stall expires. No-op on a dead attachment.
func (att *refAttachment) Wedge(d sim.Duration) {
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

// Defer queues fn to run on a polling thread; safe from callback contexts.
// Work refDeferred to a dead attachment is silently dropped — the process it
// would have run in no longer exists.
func (att *refAttachment) Defer(fn func(p *sim.Proc, th *sim.Thread)) {
	att.queue(refDeferred{fn: fn})
}

func (att *refAttachment) queue(d refDeferred) {
	if att.state == attDead {
		return
	}
	att.refDeferred = append(att.refDeferred, d)
	att.f.hint()
}

// submitRing installs w in the ring-completion table and submits the I/O.
func (att *refAttachment) submitRing(p *sim.Proc, th *sim.Thread, op blockdev.BioOp, sector uint64, data []byte, w refRingWait) {
	att.f.nextRingID++
	id := att.f.nextRingID
	att.pendingRing[id] = w
	p.Await(func(then func()) { att.ring.Submit(th, op, sector, data, id, then) })
}

// SubmitBackendIO queues an arbitrary backend ring I/O that is not tied
// to a guest request — the resync engine uses it to read the secondary
// and replay dirty chunks through the same ring (and ordering domain) as
// the foreground mirror writes. Safe from any simulation context; andThen
// runs on a polling thread when the I/O completes — except when the
// attachment dies (Kill) before the I/O finishes, in which case andThen
// runs from scheduler context with nil p/th and SCPathError. Callers must
// therefore not touch p/th on a non-OK status.
func (att *refAttachment) SubmitBackendIO(op blockdev.BioOp, sector uint64, data []byte, andThen func(p *sim.Proc, th *sim.Thread, st nvme.Status)) {
	if att.state == attDead {
		if andThen != nil {
			att.f.env.After(0, func() { andThen(nil, nil, nvme.SCPathError) })
		}
		return
	}
	att.backlog = append(att.backlog, refBackendIO{op: op, sector: sector, data: data, andThen: andThen})
	att.f.hint()
}

// --- refRequest accessors ----------------------------------------------------

// NBytes returns the request's transfer size.
func (r *refRequest) NBytes() uint32 { return r.Cmd.Blocks() << r.att.shift }

// Sector returns the starting 512-byte sector for backend io_uring I/O.
func (r *refRequest) Sector() uint64 { return r.Cmd.SLBA() << r.att.shift / blockdev.SectorSize }

// segments resolves (and caches) the command's PRP chain.
func (r *refRequest) segments() ([]nvme.Segment, error) {
	if r.segs == nil {
		segs, err := nvme.WalkPRP(r.att.nq.Mem(), r.Cmd.PRP1(), r.Cmd.PRP2(), r.NBytes())
		if err != nil {
			return nil, err
		}
		r.segs = segs
	}
	return r.segs, nil
}

// Buffer returns an n-byte buffer that belongs to the request: it comes from
// the attachment's free list and goes back when the request's completion is
// posted. Its contents are unspecified.
func (r *refRequest) Buffer(n int) []byte {
	if r.bufs == nil {
		r.bufs = r.bufArr[:0]
	}
	b := r.att.bufs.Get(n)
	r.bufs = append(r.bufs, b)
	return b
}

// ReadData copies the request's data pages out of the VM into buf.
func (r *refRequest) ReadData(buf []byte) error {
	segs, err := r.segments()
	if err != nil {
		return err
	}
	return nvme.ReadSegments(r.att.nq.Mem(), segs, buf)
}

// WriteData copies buf into the request's data pages in the VM (used after
// in-place decryption).
func (r *refRequest) WriteData(buf []byte) error {
	segs, err := r.segments()
	if err != nil {
		return err
	}
	return nvme.WriteSegments(r.att.nq.Mem(), segs, buf)
}

// CompleteAsync finishes an async request from any simulation context.
func (r *refRequest) CompleteAsync(st nvme.Status) {
	r.att.queue(refDeferred{req: r, st: st})
}

// SubmitBackendWrite writes data to the backend at the request's location
// via io_uring and completes the request with the write's status — the
// paper's queue_writev path.
func (r *refRequest) SubmitBackendWrite(p *sim.Proc, th *sim.Thread, data []byte) {
	r.att.submitRing(p, th, blockdev.BioWrite, r.Sector(), data, refRingWait{req: r})
}

// SubmitBackendWriteThen is SubmitBackendWrite with a custom continuation.
func (r *refRequest) SubmitBackendWriteThen(p *sim.Proc, th *sim.Thread, data []byte, andThen func(p *sim.Proc, th *sim.Thread, st nvme.Status)) {
	r.att.submitRing(p, th, blockdev.BioWrite, r.Sector(), data, refRingWait{req: r, andThen: andThen})
}

// SubmitBackendReadThen reads the request's range from the backend into buf
// via io_uring and runs andThen when the read completes — the cache storage
// function's miss path, which must see the data before completing the guest
// request so it can install the block into the host cache.
func (r *refRequest) SubmitBackendReadThen(p *sim.Proc, th *sim.Thread, buf []byte, andThen func(p *sim.Proc, th *sim.Thread, st nvme.Status)) {
	r.att.submitRing(p, th, blockdev.BioRead, r.Sector(), buf, refRingWait{req: r, andThen: andThen})
}
