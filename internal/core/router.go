package core

import (
	"math/bits"

	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
)

// RouterCosts models the per-operation CPU cost of the router data plane.
// Values reflect a lean kernel module: a few hundred nanoseconds per queue
// scan and per dispatched request, with the eBPF interpreter dominating the
// classification step.
type RouterCosts struct {
	PollVQ      sim.Duration // scanning one virtual queue set per iteration
	Classify    sim.Duration // one classifier invocation
	ClassifyNat sim.Duration // one native (compiled) classifier invocation
	DispatchHQ  sim.Duration // forward to hardware queue + doorbell
	DispatchNQ  sim.Duration // forward to notify queue + UIF wake
	DispatchKQ  sim.Duration // translate and submit to the block layer
	CompleteVCQ sim.Duration // post one VCQ entry
	IRQInject   sim.Duration // virtual interrupt injection per batch
}

// DefaultRouterCosts returns the calibrated cost model.
func DefaultRouterCosts() RouterCosts {
	return RouterCosts{
		PollVQ:      250 * sim.Nanosecond,
		Classify:    300 * sim.Nanosecond,
		ClassifyNat: 80 * sim.Nanosecond,
		DispatchHQ:  250 * sim.Nanosecond,
		DispatchNQ:  350 * sim.Nanosecond,
		DispatchKQ:  600 * sim.Nanosecond,
		CompleteVCQ: 250 * sim.Nanosecond,
		IRQInject:   1200 * sim.Nanosecond,
	}
}

// KernelTarget is the kernel I/O path: anything that can service a
// translated NVMe command through the host block layer (package blockdev
// provides the implementation over bios and device-mapper tables).
type KernelTarget interface {
	// Submit services cmd against guest memory mem and calls done with the
	// final status. done runs in an arbitrary simulation context and must
	// not block.
	Submit(cmd nvme.Command, mem nvme.Memory, done func(nvme.Status))
}

// Router is the NVMetro I/O router: a set of worker threads ("shards"),
// shared round-robin between the attached VMs' virtual controllers, that
// poll virtual submission queues and the completion queues of every I/O
// path. Each worker owns its tenants exclusively — their queues, QoS
// arbiter state and promotion decisions — so workers never contend;
// cross-shard traffic (kernel completions, control posts) enters through
// each worker's two inboxes.
type Router struct {
	env     *sim.Env
	costs   RouterCosts
	workers []*worker

	// promote enables the adaptive path-promotion tier: tenants whose
	// classifier has a proven static fast-path verdict collapse to a
	// direct SQ→HSQ mapping. Off by default — the single-loop evaluation
	// setups measure classifier execution, promotion would elide it.
	promote bool

	// FastPathDeadline bounds how long a fast-path hop may stay in flight
	// before the router aborts it back to the guest (0 disables). The
	// default sits far above any legitimate device queueing delay; fault
	// experiments tighten it. HTagReclaim is the quarantine window before
	// a timed-out host tag may be reused.
	FastPathDeadline sim.Duration
	HTagReclaim      sim.Duration

	// Stats
	Classifications uint64
	FastPath        uint64
	NotifyPath      uint64
	KernelPath      uint64
	Immediate       uint64

	// Error accounting, per path and guest-visible.
	FastPathErrors   uint64 // non-OK fast-path hop completions
	NotifyPathErrors uint64 // non-OK notify-path hop completions
	KernelPathErrors uint64 // non-OK kernel-path hop completions
	GuestErrors      uint64 // non-OK completions posted to guest VCQs
	StaleComps       uint64 // fast-path completions with no live host tag
	HQTimeouts       uint64 // fast-path hops aborted at their deadline
	HTagsReclaimed   uint64 // quarantined host tags recycled without a completion
	Backpressure     uint64 // dispatches deferred because a queue was full
	BadQIDs          uint64 // guest operations naming an unknown queue
	NotifyReconciled uint64 // notify hops completed by supervision reconcile
	NotifyRequeued   uint64 // notify hops requeued through the classifier
	GuardErrors      uint64 // guest reads failing protection-info verification
	QuarantinedReads uint64 // guest reads refused on quarantined ranges

	// Path-promotion accounting.
	Promotions  uint64 // routed→direct transitions granted
	Demotions   uint64 // direct→routed transitions (classifier hot-swap fences)
	PromotedOps uint64 // guest commands dispatched via the direct mapping
}

// NewRouter creates a router with one worker per given host thread.
// The paper's main evaluations use one worker per VM; the scalability
// evaluation shares a single worker across all VMs.
func NewRouter(env *sim.Env, costs RouterCosts, threads []*sim.Thread) *Router {
	r := &Router{
		env:              env,
		costs:            costs,
		FastPathDeadline: 100 * sim.Millisecond,
		HTagReclaim:      200 * sim.Millisecond,
	}
	for i, th := range threads {
		w := newWorker(r, i, th)
		r.workers = append(r.workers, w)
		env.After(0, w.stepRound)
	}
	return r
}

// newWorker creates worker id of r on thread th, its loop not yet started.
func newWorker(r *Router, id int, th *sim.Thread) *worker {
	w := &worker{r: r, id: id, thread: th, wake: sim.NewCond(r.env)}
	w.stepRound, w.stepApply, w.stepPosted, w.stepRetry = w.round, w.applyAll, w.posted, w.retryThenRound
	w.stepLook = w.look
	return w
}

// EnablePromotion turns on the adaptive path-promotion tier and
// re-evaluates every attached tenant against the current promotion
// criteria. Tenants whose classifier carries a proven constant fast-path
// verdict collapse to the direct SQ→HSQ mapping on their next round.
func (r *Router) EnablePromotion() {
	r.promote = true
	for _, w := range r.workers {
		for _, vc := range w.vcs {
			vc.refreshPromotion()
		}
	}
}

// PromotionEnabled reports whether the promotion tier is active.
func (r *Router) PromotionEnabled() bool { return r.promote }

// path returns target t's counters: dispatch attempts and non-OK hop
// completions.
func (r *Router) path(t target) (sent, errs *uint64) {
	switch t {
	case targetHQ:
		return &r.FastPath, &r.FastPathErrors
	case targetNQ:
		return &r.NotifyPath, &r.NotifyPathErrors
	default:
		return &r.KernelPath, &r.KernelPathErrors
	}
}

// Workers returns the number of worker threads.
func (r *Router) Workers() int { return len(r.workers) }

// ShardInfo is a diagnostic snapshot of one router worker (shard):
// tenant assignment, per-tenant promotion state and inbox depths.
type ShardInfo struct {
	ID        int
	Asleep    bool
	VMs       []int  // attached VM IDs, attach order
	Promoted  []bool // parallel to VMs: direct-mapping tenants
	CompDepth int    // kernel-completion inbox depth
	CtrlDepth int    // control-plane inbox depth
	QoS       bool   // per-shard arbiter installed
}

// ShardInfos snapshots every worker for the control plane.
func (r *Router) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(r.workers))
	for i, w := range r.workers {
		si := ShardInfo{
			ID:        w.id,
			Asleep:    w.asleep,
			CompDepth: len(w.comps),
			CtrlDepth: len(w.ctrl),
			QoS:       w.qos != nil,
		}
		for _, vc := range w.vcs {
			si.VMs = append(si.VMs, vc.vm.ID)
			si.Promoted = append(si.Promoted, vc.promoted)
		}
		out[i] = si
	}
	return out
}

// worker is one router polling thread — a shard. It owns its tenants'
// queues and QoS arbiter exclusively; the only state other contexts touch
// are the two inboxes and the parked flag behind the wake cond. Only one
// simulation context runs at a time, so none of it takes a lock.
//
// The worker is a reactor, not a process: its poll loop is continuations on
// the DES callback tier (round, applyAll, flushVCQs, posted), and it blocks
// nowhere — its three waits are the wake cond when idle, a spin on its thread
// when polling on, and its thread's core while it charges a batch or a VCQ
// post.
type worker struct {
	r      *Router
	id     int
	thread *sim.Thread
	wake   *sim.Cond
	vcs    []*Controller
	qos    *qos.Arbiter // nil until EnableQoS; per-shard arbiter state
	comps  []effect     // kernel-path completions, posted by the block layer
	ctrl   []effect     // control-plane posts (reconcile, promotion grants)
	asleep bool
	// rewired is set by whatever changes the set of things a gather walks —
	// a tenant attached, an arbiter installed, notify queues or a queue pair
	// created or removed — and cleared when a gather starts: idle rounds may
	// not be spun across it (see look).
	rewired bool

	// A round charges a poll of every tenant's queues but visits only the
	// tenants in these sets. ready holds every tenant whose queues may hold
	// something a gather takes: a push or post to one of its queues and a
	// timer's record add it (see markReady), and the gather that leaves it
	// quiet removes it. posting holds the tenants with VCQ entries waiting,
	// retrying those with backpressure retries waiting.
	ready, posting, retrying posSet

	outstanding int // guest commands admitted and not yet released, all tenants

	// Guard staging (see stage), reused from one guarded command to the next.
	segs    []nvme.Segment
	entry   [8]byte
	staging []byte

	effects []effect    // the round's effects; the backing array is reused
	flush   flushCursor // where the VCQ flush of the round stands

	// The loop's steps, bound once.
	stepRound, stepApply, stepPosted, stepRetry func()
	stepLook                                    func(int) sim.Time
}

// flushCursor is the position of a VCQ flush between two of its holds on the
// worker's core: the tenant position in the posting set, the tenant's queue
// list as the flush found it on reaching the tenant (a queue pair created
// during a hold is the next flush's), the queue being posted, whether one of
// the tenant's VCQs refused entries, and what runs once the flush is done.
type flushCursor struct {
	pos     int
	vqs     []*vqState
	k       int
	waiting bool
	then    func()
}

// posSet is a set of tenant positions — indexes into worker.vcs — walked in
// attach order.
type posSet struct {
	words []uint64
	n     int
}

func (s *posSet) add(i int) {
	for i>>6 >= len(s.words) {
		s.words = append(s.words, 0)
	}
	if b := uint64(1) << (i & 63); s.words[i>>6]&b == 0 {
		s.words[i>>6] |= b
		s.n++
	}
}

func (s *posSet) remove(i int) {
	if b := uint64(1) << (i & 63); s.words[i>>6]&b != 0 {
		s.words[i>>6] &^= b
		s.n--
	}
}

func (s *posSet) empty() bool { return s.n == 0 }

// next returns the smallest position in s at or after i, or -1. A walk
//
//	for i := s.next(0); i >= 0; i = s.next(i + 1)
//
// visits every position that is in s when the walk reaches it, so one added
// behind the walk waits for the next.
func (s *posSet) next(i int) int {
	wi := i >> 6
	if wi >= len(s.words) {
		return -1
	}
	if word := s.words[wi] >> (i & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// markReady puts vc in its worker's ready set. The hooks of its VSQs, HCQs
// and NCQ and its queues' deadline timers call it, whatever context they run
// in: a tenant whose queues hold something is always in the set.
func (vc *Controller) markReady() { vc.w.ready.add(vc.pos) }

// quiet reports whether a gather would find nothing of vc's to take: no
// completion on its NCQ or HCQs, no VSQ head, nothing its timers recorded.
func (vc *Controller) quiet() bool {
	if vc.nq != nil && vc.nq.ncq.Peek() {
		return false
	}
	for _, vq := range vc.vqs {
		if !vq.vsq.Empty() || vq.hqp.CQ.Peek() || len(vq.hops.due) > 0 || len(vq.reclaims.due) > 0 {
			return false
		}
	}
	return true
}

// effectKind says what applying an effect does.
type effectKind uint8

const (
	effRoute    effectKind = iota // classify h.req, a new guest command, and route it
	effDirect                     // map h.req, a promoted tenant's command, SQ→HSQ
	effFinish                     // hop h completed on path t with status st
	effDispatch                   // send hop h down path t again (backpressure retry)
	effPost                       // run fn, a control-plane post
)

// effect is a piece of work the worker has found and not yet done: a
// gather's routing effects, an inbox entry and a backpressure retry are all
// records of this one type, and apply is the only place they turn into calls.
type effect struct {
	kind effectKind
	t    target
	st   nvme.Status
	h    hop
	fn   func()
}

// apply does e. Runs in worker effect context.
func (w *worker) apply(e effect) {
	switch e.kind {
	case effRoute:
		w.classifyAndRoute(e.h.req, HookVSQ, 0)
	case effDirect:
		w.directDispatch(e.h.req)
	case effFinish:
		w.finishHop(e.h, e.t, e.st)
	case effDispatch:
		w.dispatch(e.h, e.t)
	case effPost:
		e.fn()
	}
}

// hint wakes the worker if it parked itself due to inactivity.
func (w *worker) hint() {
	if w.asleep {
		w.asleep = false
		w.wake.Signal(nil)
	}
}

// post queues fn to run as an effect of the worker's next round — the
// external-work channel the supervision subsystem uses to run reconciliation
// in worker context, where completions and retries are flushed in the same
// round. Safe from any simulation context.
func (w *worker) post(fn func()) {
	w.ctrl = append(w.ctrl, effect{kind: effPost, fn: fn})
	w.hint()
}

// round is one poll round: gather work, charge its CPU, apply its effects,
// with adaptive parking when every attached VM is idle. The gather does the
// data-structure work at once; the CPU time it represents is charged before
// the effects land.
func (w *worker) round() {
	work, idle := w.gather(&w.effects)
	if len(w.effects) > 0 {
		w.thread.ExecFunc(work, w.stepApply)
		return
	}
	if idle {
		// Nothing in flight anywhere: park until a doorbell hint, kernel
		// completion or UIF notification arrives. This is the "stop polling
		// during inactivity" behaviour.
		w.asleep = true
		w.wake.WaitFunc(w.stepRound)
		return
	}
	// Busy-poll while requests are in flight or throttled: rounds of this
	// gather's cost until one has something to look at.
	w.thread.SpinFunc(work, w.stepLook, w.stepRound)
}

// applyAll applies the round's routing effects once their CPU time is
// charged, then posts the completions they produced.
func (w *worker) applyAll() {
	for _, e := range w.effects {
		w.apply(e)
	}
	w.flushVCQs(w.stepRetry)
}

// retryThenRound re-attempts the refused dispatches once the round's
// completions are posted, and starts the next round.
func (w *worker) retryThenRound() {
	w.flushRetries()
	w.round()
}

// gather is one poll round's look at everything the worker serves: it
// consumes what is visible — inbox entries, completions on every path, guest
// submissions, deadlines the timers found due — and leaves the routing
// effects that follow from it in *out (whose backing array it reuses),
// returning the CPU time the round costs. idle reports that nothing is in
// flight or throttled anywhere, so the worker may park rather than poll on.
func (w *worker) gather(out *[]effect) (work sim.Duration, idle bool) {
	c := w.r.costs
	w.rewired = false
	clear(*out) // drop the previous round's requests
	effects := (*out)[:0]

	// Kernel-path completions posted since the last round.
	work += sim.Duration(len(w.comps)) * c.PollVQ
	effects = drain(&w.comps, effects)

	// The round polls every tenant's queues; only the ready ones hold
	// anything, and they are visited in attach order, as a walk of all would.
	work += sim.Duration(len(w.vcs)) * c.PollVQ
	for i := w.ready.next(0); i >= 0; i = w.ready.next(i + 1) {
		vc := w.vcs[i]
		// Notify-path completions (one NCQ per controller).
		if vc.nq != nil {
			var e nvme.Completion
			for vc.nq.ncq.Pop(&e) {
				if h, ok := vc.takeNTag(e.CID()); ok {
					effects = append(effects, effect{kind: effFinish, t: targetNQ, st: e.Status(), h: h})
				}
			}
		}
		for _, vq := range vc.vqs {
			// New guest submissions (the arbitrated pass below handles
			// these when QoS is enabled).
			if w.qos == nil {
				var cmd nvme.Command
				for vq.vsq.Pop(&cmd) {
					effects = append(effects, w.admit(vq, &cmd, 0, &work))
				}
			}
			// Fast-path completions.
			var e nvme.Completion
			for vq.hqp.CQ.Pop(&e) {
				cid := e.CID()
				h := vq.htags[cid]
				if h.req == nil {
					// No live host tag: the late completion of a hop
					// whose deadline already aborted it. Count it
					// (silent drops would hide injected faults) and
					// release the quarantined tag.
					w.r.StaleComps++
					vq.releaseLost(cid)
					continue
				}
				vq.htags[cid] = hop{}
				vq.freeHTags = append(vq.freeHTags, cid)
				effects = append(effects, effect{kind: effFinish, t: targetHQ, st: e.Status(), h: h})
			}
			// Then what the queue's timers found due: a completion
			// popped above beats a deadline that passed since the last
			// round.
			effects = w.expire(vq, effects)
		}
	}

	// Externally posted work (supervision reconciliation, promotion
	// grants) runs after the per-controller gather so NCQ completions
	// consumed above cannot race the reconcile sweep within the round.
	work += sim.Duration(len(w.ctrl)) * c.PollVQ
	effects = drain(&w.ctrl, effects)

	// Arbitrated admission pass: WFQ + token buckets + admission
	// control decide which VSQ heads enter this round. Commands left
	// throttled in their rings are backlog the worker must keep
	// polling for (time must advance for buckets to refill).
	backlog := 0
	if w.qos != nil {
		backlog = w.gatherQoS(&effects, &work)
	}
	// What the round left behind keeps its tenant ready; the rest leave.
	for i := w.ready.next(0); i >= 0; i = w.ready.next(i + 1) {
		if w.vcs[i].quiet() {
			w.ready.remove(i)
		}
	}
	*out = effects
	return work, w.outstanding == 0 && backlog == 0
}

// drain moves an inbox's records onto effects and empties it.
func drain(inbox *[]effect, effects []effect) []effect {
	effects = append(effects, *inbox...)
	clear(*inbox)
	*inbox = (*inbox)[:0]
	return effects
}

// admit takes cmd, just popped from vq, in as a request — outstanding until
// maybeRelease lets it go — and returns its routing effect. A promoted
// tenant's command maps SQ→HSQ directly: the classifier's verdict is a proven
// constant, so nothing runs and nothing is charged. Any other command is
// classified, at a cost added to *work. qosBase is the arbiter's admission
// charge, 0 without QoS.
func (w *worker) admit(vq *vqState, cmd *nvme.Command, qosBase float64, work *sim.Duration) effect {
	vc := vq.vc
	vc.outstanding++
	w.outstanding++
	req := &request{vq: vq, gcid: cmd.CID(), cmd: *cmd, t0: w.r.env.Now(), qosBase: qosBase}
	if vc.promoted {
		return effect{kind: effDirect, h: hop{req: req}}
	}
	*work += vc.classifyCost(w.r.costs)
	return effect{kind: effRoute, h: hop{req: req}}
}

// look is the gather of run reduced to looking, for the rounds Spin runs
// without the worker: zero when a gather now would find something — an inbox
// entry or a ready tenant: a completion on an NCQ or HCQ, a VSQ head
// (admissible or not: with a QoS backlog every round re-evaluates the token
// buckets and counts the deferral), a hop deadline or tag reclaim a queue's
// timer found due — or would walk a different set of queues than the one
// whose cost the rounds charge; otherwise the end of the current SLO window
// (Tick evaluates the admission controller once per call, so no round may be
// skipped across one). Deadlines need no bound here: a due timer is a
// scheduler event, and an event ends a spin step by itself. Everything else a
// gather reads is the worker's own and only changes in its effects.
func (w *worker) look(int) sim.Time {
	if w.rewired || len(w.comps) > 0 || len(w.ctrl) > 0 || !w.ready.empty() {
		return 0
	}
	if w.qos != nil {
		return w.qos.NextWindowEnd()
	}
	return sim.Never
}

// flushVCQs posts queued VCQ entries and injects interrupts, walking the
// posting set in attach order; then runs then. Each queue that takes entries
// costs one hold of the worker's core (ExecFunc), after which posted raises
// the interrupt and the walk resumes from the cursor. A tenant leaves the
// posting set once its VCQs have taken everything.
func (w *worker) flushVCQs(then func()) {
	w.flush.then = then
	w.flushAt(w.posting.next(0))
	w.flushOn()
}

// flushAt moves the cursor to the tenant at posting position pos (-1: none
// left).
func (w *worker) flushAt(pos int) {
	f := &w.flush
	f.pos, f.k, f.waiting, f.vqs = pos, 0, false, nil
	if pos >= 0 {
		f.vqs = w.vcs[pos].vqs
	}
}

// flushOn walks from the cursor to the next queue that takes entries, whose
// hold it starts, or to the end of the flush.
func (w *worker) flushOn() {
	c := w.r.costs
	f := &w.flush
	for f.pos >= 0 {
		for ; f.k < len(f.vqs); f.k++ {
			vq := f.vqs[f.k]
			if len(vq.pendingVCQ) == 0 {
				continue
			}
			var cost sim.Duration
			n := 0
			for _, pc := range vq.pendingVCQ {
				if !vq.vcq.Push(&pc) {
					break
				}
				n++
				cost += c.CompleteVCQ
			}
			// Copy what the VCQ refused down to the front: reslicing the
			// front away would make the next append reallocate.
			vq.pendingVCQ = append(vq.pendingVCQ[:0], vq.pendingVCQ[n:]...)
			if n > 0 {
				w.thread.ExecFunc(cost+c.IRQInject, w.stepPosted)
				return
			}
			f.waiting = f.waiting || len(vq.pendingVCQ) > 0
		}
		if !f.waiting {
			w.posting.remove(f.pos)
		}
		w.flushAt(w.posting.next(f.pos + 1))
	}
	then := f.then
	f.then, f.vqs = nil, nil
	then()
}

// posted ends the hold of a queue that took entries: the interrupt, then the
// rest of the walk.
func (w *worker) posted() {
	f := &w.flush
	vq := f.vqs[f.k]
	if vq.irq != nil {
		vq.irq()
	}
	f.waiting = f.waiting || len(vq.pendingVCQ) > 0
	f.k++
	w.flushOn()
}

// flushRetries re-attempts dispatches that found a full queue earlier. A
// retry refused again is the next round's.
func (w *worker) flushRetries() {
	for i := w.retrying.next(0); i >= 0; i = w.retrying.next(i + 1) {
		vc := w.vcs[i]
		w.retrying.remove(i)
		pending := vc.retry
		vc.retry = nil
		for _, e := range pending {
			w.apply(e)
		}
	}
}
