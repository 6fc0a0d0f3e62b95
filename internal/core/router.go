package core

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/shard/ring"
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
// each worker's lock-free MPSC inboxes.
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
		w := &worker{
			r: r, id: i, thread: th, wake: sim.NewCond(env),
			comps: ring.New(), ctrl: ring.New(),
		}
		r.workers = append(r.workers, w)
		env.Go(fmt.Sprintf("router-w%d", i), w.run)
	}
	return r
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

// pathErrors returns the per-path error counter for target t.
func (r *Router) pathErrors(t target) *uint64 {
	switch t {
	case targetHQ:
		return &r.FastPathErrors
	case targetNQ:
		return &r.NotifyPathErrors
	default:
		return &r.KernelPathErrors
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
	CompDepth int    // kernel-completion MPSC inbox depth
	CtrlDepth int    // control-plane MPSC inbox depth
	QoS       bool   // per-shard arbiter installed
}

// ShardInfos snapshots every worker for the control plane.
func (r *Router) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(r.workers))
	for i, w := range r.workers {
		si := ShardInfo{
			ID:        w.id,
			Asleep:    w.asleep,
			CompDepth: w.comps.Len(),
			CtrlDepth: w.ctrl.Len(),
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
// queues and QoS arbiter exclusively; the only state other contexts may
// touch are the two MPSC inboxes and the parked flag behind the wake cond.
type worker struct {
	r      *Router
	id     int
	thread *sim.Thread
	wake   *sim.Cond
	vcs    []*Controller
	qos    *qos.Arbiter // nil until EnableQoS; per-shard arbiter state
	comps  *ring.MPSC   // kernel-path completion fan-in
	ctrl   *ring.MPSC   // control-plane posts (reconcile, promotion fences)
	asleep bool
	// rewired is set by whatever changes the set of things a gather walks —
	// a tenant attached, an arbiter installed, notify queues or a queue pair
	// created or removed — and cleared when a gather starts: idle rounds may
	// not be spun across it (see look).
	rewired bool

	// Guard staging (see stage), reused from one guarded command to the next.
	segs    []nvme.Segment
	entry   [8]byte
	staging []byte
}

// hint wakes the worker if it parked itself due to inactivity.
func (w *worker) hint() {
	if w.asleep {
		w.asleep = false
		w.wake.Signal(nil)
	}
}

// post queues fn to run as a routing effect on the worker's next
// iteration — the external-work channel the supervision subsystem uses to
// run reconciliation in worker context, where completions and retries are
// flushed in the same round. Safe from any simulation context; with real
// shard threads the MPSC makes it safe from any thread.
func (w *worker) post(fn func()) {
	w.ctrl.Push(fn)
	w.hint()
}

// run is the worker main loop: a two-phase poll (gather work, charge CPU,
// apply effects) with adaptive parking when every attached VM is idle.
func (w *worker) run(p *sim.Proc) {
	look := w.look
	var effects []func() // backing array reused across rounds
	for {
		// Phase 1: gather. Data-structure work happens instantly; the CPU
		// time it represents is charged in phase 2 before effects land.
		work, idle := w.gather(&effects)

		if len(effects) == 0 {
			if idle {
				// Nothing in flight anywhere: park until a doorbell hint,
				// kernel completion or UIF notification arrives. This is
				// the "stop polling during inactivity" behaviour.
				w.asleep = true
				w.wake.Wait()
				continue
			}
			// Busy-poll while requests are in flight or throttled: rounds
			// of this gather's cost until one has something to look at.
			w.thread.Spin(p, work, look)
			continue
		}

		// Phase 2: charge the CPU for this batch.
		w.thread.Exec(p, work)

		// Phase 3: apply routing effects and post completions.
		for _, fn := range effects {
			fn()
		}
		w.flushCompletions(p)
		w.flushRetries(p)
	}
}

// gather is one poll round's look at everything the worker serves: it
// consumes what is visible — inbox entries, completions on every path, guest
// submissions, overdue deadlines — and leaves the routing effects that follow
// from it in *out (whose backing array it reuses), returning the CPU time the
// round costs. idle reports that nothing is in flight or throttled anywhere,
// so the worker may park rather than poll on.
func (w *worker) gather(out *[]func()) (work sim.Duration, idle bool) {
	c := w.r.costs
	outstanding := 0
	w.rewired = false
	clear(*out) // drop the previous round's closures
	effects := (*out)[:0]

	// Kernel-path completions fan in from other contexts through the
	// lock-free inbox; drain what is visible this round.
	w.comps.Drain(func(fn func()) {
		work += c.PollVQ
		effects = append(effects, fn)
	})

	for _, vc := range w.vcs {
		work += c.PollVQ
		outstanding += vc.outstanding
		// Notify-path completions (one NCQ per controller).
		if vc.nq != nil {
			var e nvme.Completion
			for vc.nq.ncq.Pop(&e) {
				h, ok := vc.takeNTag(e.CID())
				if !ok {
					continue
				}
				st := e.Status()
				effects = append(effects, func() { w.finishHop(h, targetNQ, st) })
			}
		}
		for _, vq := range vc.vqs {
			// New guest submissions (the arbitrated pass below handles
			// these when QoS is enabled).
			if w.qos == nil {
				var cmd nvme.Command
				for vq.vsq.Pop(&cmd) {
					vc.outstanding++
					outstanding++
					req := &request{vq: vq, gcid: cmd.CID(), cmd: cmd, t0: w.r.env.Now()}
					if vc.promoted {
						// Promoted tenant: the classifier's verdict is a
						// proven constant, so the hop maps SQ→HSQ
						// directly — no classifier charge, no execution.
						effects = append(effects, func() { w.directDispatch(req) })
					} else {
						work += vc.classifyCost(c)
						effects = append(effects, func() { w.classifyAndRoute(req, HookVSQ, 0) })
					}
				}
			}
			// Fast-path completions.
			var e nvme.Completion
			for vq.hqp.CQ.Pop(&e) {
				cid := e.CID()
				h := vq.htags[cid]
				if h.req == nil {
					// No live host tag: the late completion of a hop
					// the deadline sweep already aborted. Count it
					// (silent drops would hide injected faults) and
					// release the quarantined tag.
					w.r.StaleComps++
					vq.releaseLost(cid)
					continue
				}
				vq.htags[cid] = hop{}
				vq.freeHTags = append(vq.freeHTags, cid)
				vq.trimDeadlines()
				st := e.Status()
				effects = append(effects, func() { w.finishHop(h, targetHQ, st) })
			}
			// Deadline sweep: abort fast-path hops that outlived their
			// deadline and recycle quarantined tags whose completion
			// never arrived.
			for _, h := range vq.expireDeadlines(w.r) {
				h := h
				effects = append(effects, func() { w.finishHop(h, targetHQ, nvme.SCAbortRequested) })
			}
		}
	}

	// Externally posted work (supervision reconciliation, promotion
	// fences) runs after the per-controller gather so NCQ completions
	// consumed above cannot race the reconcile sweep within the round.
	w.ctrl.Drain(func(fn func()) {
		work += c.PollVQ
		effects = append(effects, fn)
	})

	// Arbitrated admission pass: WFQ + token buckets + admission
	// control decide which VSQ heads enter this round. Commands left
	// throttled in their rings are backlog the worker must keep
	// polling for (time must advance for buckets to refill).
	backlog := 0
	if w.qos != nil {
		var admitted int
		admitted, backlog = w.gatherQoS(&effects, &work)
		outstanding += admitted
	}
	*out = effects
	return work, outstanding == 0 && backlog == 0
}

// look is the gather of run reduced to looking, for the rounds Spin runs
// without the worker: zero when a gather now would find something — an inbox
// entry, a completion on any NCQ or HCQ, a VSQ head (admissible or not: with a
// QoS backlog every round re-evaluates the token buckets and counts the
// deferral) — or would walk a different set of queues than the one whose cost
// the rounds charge; otherwise the earliest instant the clock alone gives it
// something: a hop deadline or tag reclaim on any queue, or the end of an SLO
// window (Tick evaluates the admission controller once per call, so no round
// may be skipped across one). Everything else a gather reads is the worker's
// own and only changes in its effects.
func (w *worker) look(int) sim.Time {
	if w.rewired || w.comps.Len() > 0 || w.ctrl.Len() > 0 {
		return 0
	}
	until := sim.Never
	if w.qos != nil {
		until = w.qos.NextWindowEnd()
	}
	for _, vc := range w.vcs {
		if vc.nq != nil && vc.nq.ncq.Peek() {
			return 0
		}
		for _, vq := range vc.vqs {
			if !vq.vsq.Empty() || vq.hqp.CQ.Peek() {
				return 0
			}
			until = min(until, vq.nextTimed(w.r))
		}
	}
	return until
}

// flushCompletions posts queued VCQ entries and injects interrupts.
func (w *worker) flushCompletions(p *sim.Proc) {
	c := w.r.costs
	for _, vc := range w.vcs {
		for _, vq := range vc.vqs {
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
			vq.pendingVCQ = vq.pendingVCQ[n:]
			if n > 0 {
				cost += c.IRQInject
				w.thread.Exec(p, cost)
				if vq.irq != nil {
					vq.irq()
				}
			}
		}
	}
}

// flushRetries re-attempts dispatches that found a full HSQ/NSQ earlier.
func (w *worker) flushRetries(p *sim.Proc) {
	for _, vc := range w.vcs {
		if len(vc.retry) == 0 {
			continue
		}
		pending := vc.retry
		vc.retry = nil
		for _, fn := range pending {
			fn()
		}
	}
}
