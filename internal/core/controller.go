package core

import (
	"fmt"

	"nvmetro/internal/sim"

	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/vm"
)

// target indexes the three I/O paths.
type target uint8

const (
	targetHQ target = iota
	targetNQ
	targetKQ
	numTargets
)

// routeBits is each path's part of a classifier verdict — send to it, hook
// its completion, count its completion toward the guest's — and the hook a
// hooked completion invokes the classifier at.
var routeBits = [numTargets]struct {
	send, hook, willComplete uint64
	compHook                 uint32
}{
	targetHQ: {ActSendHQ, ActHookHCQ, ActWillCompleteHQ, HookHCQ},
	targetNQ: {ActSendNQ, ActHookNCQ, ActWillCompleteNQ, HookNCQ},
	targetKQ: {ActSendKQ, ActHookKCQ, ActWillCompleteKQ, HookKCQ},
}

// disposition records what happens when a routed hop completes.
type disposition uint8

const (
	dispNone     disposition = iota // fire and forget
	dispHook                        // invoke the classifier again
	dispComplete                    // counts toward guest completion
)

// request is one routing-table entry: the state of a guest command as it
// traverses hops ("iterative routing").
type request struct {
	vq     *vqState
	gcid   uint16
	cmd    nvme.Command
	s0, s1 uint64 // classifier scratch, persists across hooks

	t0      sim.Time // admission time, for QoS latency tracking
	qosBase float64  // base service units charged at admission

	pending   int         // outstanding hops of any disposition
	waiters   int         // outstanding dispComplete hops
	status    nvme.Status // first error seen on any hop
	completed bool        // guest completion posted
	stamped   bool        // guard-stamped write, tracked in activeWrites
}

// hop is one dispatched leg of a request. Dispositions are tracked per hop
// (not per target): a classifier may legally send to the same target in
// overlapping rounds, and each leg's completion must consume exactly its
// own disposition.
type hop struct {
	req  *request
	disp disposition
}

// vqState is one virtual queue pair and its shadowing host queue pair.
type vqState struct {
	vc         *Controller
	qid        uint16
	vsq        *nvme.SQ
	vcq        *nvme.CQ
	hqp        *nvme.QueuePair
	irq        func()
	htags      []hop
	htagSeq    []uint32 // dispatch epoch per tag: which hop a deadline is for
	lost       []uint32 // per tag, the epoch it was quarantined in; 0 if it is not
	freeHTags  []uint16
	pendingVCQ []nvme.Completion

	dispatchSeq uint32
	hops        tagTimer // fast-path hop deadlines, keyed by (tag, dispatch epoch)
	reclaims    tagTimer // quarantined tags' reclaim, keyed by (tag, quarantine epoch)
}

// tagTimer is a sim.Deadlines over a queue's host tags and the entries its
// timer has found due since the last gather. The timer only records, and
// makes the tenant ready: the gather acts, right after popping the queue's
// HCQ, and re-checks that the entry is still live, so a completion that lands
// between the two still wins and nothing is aborted from scheduler context.
type tagTimer struct {
	*sim.Deadlines
	vc  *Controller
	due []tagEpoch
}

// tagEpoch names one use of a host tag.
type tagEpoch struct{ tag, epoch uint32 }

func (tt *tagTimer) record(tag, epoch uint32) {
	tt.due = append(tt.due, tagEpoch{tag, epoch})
	tt.vc.markReady()
}

// inFlight reports whether the hop dispatched on tag in epoch is still
// awaited.
func (vq *vqState) inFlight(tag, epoch uint32) bool {
	return vq.htagSeq[tag] == epoch && vq.htags[tag].req != nil
}

// quarantined reports whether tag is still quarantined since epoch.
func (vq *vqState) quarantined(tag, epoch uint32) bool { return vq.lost[tag] == epoch }

// releaseLost frees cid if it is quarantined (its late completion arrived).
func (vq *vqState) releaseLost(cid uint16) {
	if vq.lost[cid] != 0 {
		vq.lost[cid] = 0
		vq.freeHTags = append(vq.freeHTags, cid)
	}
}

// expire acts on what vq's timers found due. A hop still in flight at its
// deadline fails back to the guest with SCAbortRequested and its tag is
// quarantined: the device may yet complete it, so the tag is reused only once
// that late completion arrives or HTagReclaim passes. A tag still quarantined
// at its reclaim instant is freed.
func (w *worker) expire(vq *vqState, effects []effect) []effect {
	for _, d := range vq.hops.due {
		if !vq.inFlight(d.tag, d.epoch) {
			continue
		}
		h := vq.htags[d.tag]
		vq.htags[d.tag] = hop{}
		vq.lost[d.tag] = d.epoch
		vq.reclaims.Add(d.tag, d.epoch, w.r.env.Now().Add(w.r.HTagReclaim))
		w.r.HQTimeouts++
		effects = append(effects, effect{kind: effFinish, t: targetHQ, st: nvme.SCAbortRequested, h: h})
	}
	vq.hops.due = vq.hops.due[:0]
	for _, d := range vq.reclaims.due {
		if vq.quarantined(d.tag, d.epoch) {
			vq.lost[d.tag] = 0
			vq.freeHTags = append(vq.freeHTags, uint16(d.tag))
			w.r.HTagsReclaimed++
		}
	}
	vq.reclaims.due = vq.reclaims.due[:0]
	return effects
}

// Controller is the virtual NVMe controller NVMetro exposes to one VM,
// attached to a partition of a host NVMe device. It implements vm.Port, so
// any NVMe-speaking guest works unmodified, and carries the per-VM
// classifier, notify queues and kernel target.
type Controller struct {
	router *Router
	w      *worker
	pos    int // index in w.vcs: the tenant's place in the worker's position sets
	vm     *vm.VM
	part   device.Partition

	cprog  *ebpf.CompiledProgram
	native NativeClassifier
	cvm    *ebpf.VM
	ctx    ctxBuf

	// Adaptive path promotion: when static analysis proves the loaded
	// classifier always returns the pure fast-path verdict, the tenant's
	// hop collapses to a direct SQ→HSQ mapping and classifier execution is
	// elided entirely. promoted flips synchronously on demotion (the
	// hot-swap fence) and via the worker's control inbox on promotion.
	staticRet    uint64 // proven constant verdict (valid when staticOK)
	staticOK     bool
	promoted     bool
	promoPending bool // a promotion grant is already in the control inbox

	vqs      []*vqState
	nextQID  uint16
	nq       *NotifyQueues
	ntags    map[uint16]ntagEntry
	nextNTag uint16
	kt       KernelTarget

	retry       []effect // dispatches a full queue refused, retried after the round
	outstanding int
	tenant      *qos.Tenant // arbiter state, nil until Router.EnableQoS

	guard        BlockGuard
	guardShift   uint8
	activeWrites []*request     // stamped writes in flight (see guardAdmit)
	guardReads   []*request     // guarded reads in flight (see retireRead)
	recentWrites []settledRange // settled writes still racing in-flight reads
}

// settledRange is a stamped write that completed while guarded reads were
// outstanding: a read admitted before at may legitimately carry the
// previous generation, so verification stands down for it.
type settledRange struct {
	lba, blocks uint64
	at          sim.Time
}

// BlockGuard is the per-device protection-info surface the controller
// stamps guest writes into and verifies guest reads against (satisfied by
// *integrity.Guard). core cannot import integrity — the uif package
// imports core — so the dependency is inverted through this interface.
type BlockGuard interface {
	Stamp(lba uint64, data []byte)
	StampZeroes(lba, blocks uint64)
	Verify(lba uint64, data []byte) bool
	Quarantined(lba, blocks uint64) bool
}

// SetGuard installs end-to-end protection info on this controller (nil
// detaches): guest writes are stamped at admission — after classification,
// when the SLBA is device-absolute — and guest read completions are
// verified before posting, so wrong data can never reach the guest with an
// OK status no matter which path served it.
func (vc *Controller) SetGuard(g BlockGuard) {
	vc.guard = g
	vc.guardShift = vc.part.Dev.Params().LBAShift
}

// Attach creates a virtual controller for v over part on the router's
// least-loaded worker: fewest tenants, lowest worker ID on ties. With no
// tenant detach this is the round-robin sequence 0, 1, …, n-1, 0, …; the
// rule is stated by load so it stays right once tenants can leave. The
// controller starts with the default fast-path classifier; whatever
// classifier runs, no command leaves the router for a range outside part
// (see confined).
func (r *Router) Attach(v *vm.VM, part device.Partition) *Controller {
	w := r.workers[0]
	for _, c := range r.workers[1:] {
		if len(c.vcs) < len(w.vcs) {
			w = c
		}
	}
	vc := &Controller{
		router: r,
		w:      w,
		pos:    len(w.vcs),
		vm:     v,
		part:   part,
		cvm:    ebpf.NewVM(nil),
		ntags:  make(map[uint16]ntagEntry),
	}
	if err := vc.LoadClassifier(DefaultClassifier()); err != nil {
		panic(fmt.Sprintf("core: default classifier rejected: %v", err))
	}
	if r.qosEnabled() {
		vc.registerTenant()
	}
	w.vcs = append(w.vcs, vc)
	w.rewired = true
	return vc
}

// VM returns the attached VM.
func (vc *Controller) VM() *vm.VM { return vc.vm }

// Router returns the router servicing this controller (for policy tuning
// and error-counter inspection).
func (vc *Controller) Router() *Router { return vc.router }

// Outstanding returns the number of guest commands accepted but not yet
// completed — zero once every submission has produced a VCQ entry.
func (vc *Controller) Outstanding() int { return vc.outstanding }

// Partition returns the backing partition.
func (vc *Controller) Partition() device.Partition { return vc.part }

// LoadClassifier verifies, compiles and installs a classifier; it can be
// swapped at any time without disturbing in-flight requests ("install,
// migrate and remove storage functions on the fly"). Classifiers execute on
// the compiled tier only (the kernel-JIT analogue): the router runs nothing
// the verifier has not accepted and the compiler has not translated.
func (vc *Controller) LoadClassifier(p *ebpf.Program) error {
	cp, err := ebpf.Compile(p, NewVerifier())
	if err != nil {
		return fmt.Errorf("core: classifier rejected: %w", err)
	}
	vc.cprog = cp
	vc.staticRet, vc.staticOK = cp.StaticVerdict()
	vc.refreshPromotion()
	return nil
}

// classifyCost returns the virtual CPU cost of one classification under the
// currently installed classifier kind.
func (vc *Controller) classifyCost(c RouterCosts) sim.Duration {
	if vc.native != nil {
		return c.ClassifyNat
	}
	return c.Classify
}

// NativeClassifier is a compiled-in classification function with the same
// contract as an eBPF classifier (writable context in, action word out) but
// without interpretation or sandboxing. It exists for the ablation study of
// classifier execution cost; production policies should stay in verified
// eBPF, which is the paper's isolation argument.
type NativeClassifier func(ctx []byte) uint64

// SetNativeClassifier installs fn in place of the eBPF program (nil
// restores the eBPF classifier).
func (vc *Controller) SetNativeClassifier(fn NativeClassifier) {
	vc.native = fn
	vc.refreshPromotion()
}

// promotable reports whether the controller currently qualifies for the
// direct SQ→HSQ tier: promotion enabled on the router, an eBPF classifier
// (a native one is opaque to the static analysis), no UIF attached (a
// notify consumer implies the verdict is about to matter), and a proven
// constant verdict equal to the pure fast-path action word.
func (vc *Controller) promotable() bool {
	return vc.router.promote && vc.staticOK && vc.native == nil &&
		vc.nq == nil && vc.staticRet == uint64(ActSendHQ|ActWillCompleteHQ)
}

// refreshPromotion re-evaluates the controller's dispatch tier after any
// event that can change the verdict (LoadClassifier, AttachUIF/DetachUIF,
// SetNativeClassifier, EnablePromotion).
//
// Demotion is synchronous — this is the hot-swap fence: by the time
// LoadClassifier returns, no command admitted afterwards can bypass the
// new classifier. Promotion is deferred through the worker's control
// inbox so the grant lands between poll rounds, never mid-gather, exactly
// like a supervision reconcile.
func (vc *Controller) refreshPromotion() {
	if vc.promoted && !vc.promotable() {
		vc.promoted = false
		vc.router.Demotions++
		return
	}
	if !vc.promoted && vc.promotable() && !vc.promoPending {
		vc.promoPending = true
		vc.w.post(func() {
			vc.promoPending = false
			if !vc.promoted && vc.promotable() {
				vc.promoted = true
				vc.router.Promotions++
			}
		})
	}
}

// Promoted reports whether the controller currently dispatches guest
// commands via the direct SQ→HSQ mapping (classifier execution elided).
func (vc *Controller) Promoted() bool { return vc.promoted }

// StaticVerdict returns the classifier's statically proven constant
// verdict, when the analysis holds (control-plane/diagnostics surface).
func (vc *Controller) StaticVerdict() (uint64, bool) { return vc.staticRet, vc.staticOK }

// WorkerID returns the index of the router worker (shard) serving this
// controller.
func (vc *Controller) WorkerID() int { return vc.w.id }

// SetKernelTarget installs the kernel-path backend.
func (vc *Controller) SetKernelTarget(kt KernelTarget) { vc.kt = kt }

// --- vm.Port implementation -------------------------------------------

// Namespace implements vm.Port: the guest sees the partition as a
// whole namespace.
func (vc *Controller) Namespace() nvme.NamespaceInfo { return vc.part.Info() }

// IdentifyController returns the virtual controller's identify page,
// implementing the admin Identify command surface.
func (vc *Controller) IdentifyController() nvme.ControllerInfo {
	return nvme.ControllerInfo{
		VID: 0x1b36, Serial: fmt.Sprintf("NVMETRO%08d", vc.vm.ID),
		Model: "NVMetro Virtual NVMe Controller", Firmware: "1.0",
		NN: 1, MaxXfer: 5, SQES: 6, CQES: 4,
	}
}

// CreateQP implements vm.Port: allocates a VSQ/VCQ pair plus the shadowing
// host queue pair on the device.
func (vc *Controller) CreateQP(depth uint32) *nvme.QueuePair {
	vc.nextQID++
	vq := &vqState{
		vc:      vc,
		qid:     vc.nextQID,
		vsq:     nvme.NewSQ(vc.nextQID, depth),
		vcq:     nvme.NewCQ(vc.nextQID, depth),
		hqp:     vc.part.Dev.CreateQueuePair(depth, vc.vm.Mem),
		htags:   make([]hop, depth),
		htagSeq: make([]uint32, depth),
		lost:    make([]uint32, depth),
	}
	vq.hops.Deadlines = sim.NewDeadlines(vc.router.env, vq.inFlight, vq.hops.record)
	vq.reclaims.Deadlines = sim.NewDeadlines(vc.router.env, vq.quarantined, vq.reclaims.record)
	vq.hops.vc, vq.reclaims.vc = vc, vc
	vq.vsq.OnPush, vq.hqp.CQ.OnPost = vc.markReady, vc.markReady
	for i := uint32(0); i < depth; i++ {
		vq.freeHTags = append(vq.freeHTags, uint16(i))
	}
	vc.vqs = append(vc.vqs, vq)
	vc.w.rewired = true
	return &nvme.QueuePair{SQ: vq.vsq, CQ: vq.vcq}
}

// Ring implements vm.Port. Mediated doorbells live in shared memory, so a
// ring is free for the guest; it only serves as a wake-up hint for a worker
// that parked itself during inactivity.
func (vc *Controller) Ring(qid uint16) { vc.w.hint() }

// SetIRQ implements vm.Port. An unknown qid is a guest configuration error
// (reachable from guest input), so it is counted and ignored rather than
// panicking the host.
func (vc *Controller) SetIRQ(qid uint16, fn func()) {
	for _, vq := range vc.vqs {
		if vq.qid == qid {
			vq.irq = fn
			return
		}
	}
	vc.router.BadQIDs++
}

// --- classification and routing ----------------------------------------

// classifyAndRoute invokes the classifier for req at the given hook and
// applies the returned actions. Runs in worker effect context.
func (w *worker) classifyAndRoute(req *request, hook uint32, errStatus nvme.Status) {
	vc := req.vq.vc
	w.r.Classifications++
	vc.ctx.set(hook, uint32(errStatus), uint32(vc.vm.ID), uint32(req.vq.qid), req.s0, req.s1, req.cmd[:])
	var ret uint64
	if vc.native != nil {
		ret = vc.native(vc.ctx[:])
		if hook == HookVSQ {
			// Native classifiers cannot tag a class; charge the default.
			w.chargeClass(req, qos.ClassDefault)
		}
	} else {
		var err error
		if ret, err = vc.cvm.RunCompiled(vc.cprog, vc.ctx[:]); err != nil {
			// A faulting classifier fails the request rather than the
			// host — the isolation property eBPF buys us.
			w.completeReq(req, nvme.SCInternal)
			return
		}
		if hook == HookVSQ {
			// The qos_set_class helper tagged the command's scheduling
			// class (0 when untagged); settle the class-multiplier delta
			// against the tenant's admission charge.
			w.chargeClass(req, qos.Class(vc.cvm.QoSClass))
		}
	}
	// Direct mediation: copy back the (possibly rewritten) command and
	// scratch space.
	copy(req.cmd[:], vc.ctx[CtxOffCmd:])
	req.s0, req.s1 = vc.ctx.scratch()

	actions := ret
	if actions&ActComplete != 0 {
		w.r.Immediate++
		w.completeReq(req, nvme.Status(actions&ActStatusMask))
		return
	}

	if hook == HookVSQ && vc.guard != nil && !w.guardAdmit(req) {
		return
	}

	// One leg per path the verdict sends to. Every leg is counted before any
	// is dispatched, so a leg that fails at once cannot complete the request
	// ahead of its siblings.
	var legs [numTargets]hop
	n := 0
	for t, b := range routeBits {
		if actions&b.send == 0 {
			continue
		}
		d := dispNone
		switch {
		case actions&b.hook != 0:
			d = dispHook
		case actions&b.willComplete != 0:
			d = dispComplete
			req.waiters++
		}
		legs[t] = hop{req, d}
		req.pending++
		n++
	}
	if n == 0 {
		// No action at all: a buggy classifier must not wedge the guest.
		w.completeReq(req, nvme.SCInternal)
		return
	}
	for t, h := range legs {
		if h.req != nil {
			w.dispatch(h, target(t))
		}
	}
}

// directDispatch is the promoted tier's dispatch: the classifier's verdict
// is a proven constant equal to ActSendHQ|ActWillCompleteHQ and the
// program is pure (no ctx writes, no map mutation, no class tagging), so
// the command maps SQ→HSQ directly with no classifier execution, no ctx
// marshalling and no copy-back. Everything downstream of classification —
// confinement, guard admission, tag allocation, deadlines, backpressure —
// is shared with the routed tier via dispatch. Runs in worker effect
// context.
func (w *worker) directDispatch(req *request) {
	vc := req.vq.vc
	if !vc.promoted {
		// Demoted between gather and effect (the hot-swap fence closed
		// mid-round): the new classifier decides. The elided classify
		// charge is not retrofitted — a one-round transition artifact.
		w.classifyAndRoute(req, HookVSQ, 0)
		return
	}
	w.r.PromotedOps++
	// A pure classifier cannot invoke qos_set_class; the admission charge
	// settles at the default class, as it would after execution.
	w.chargeClass(req, qos.ClassDefault)
	if vc.guard != nil && !w.guardAdmit(req) {
		return
	}
	req.pending++
	req.waiters++
	w.dispatch(hop{req, dispComplete}, targetHQ)
}

// guardAdmit runs the protection-info admission step for a routed guest
// command (the classifier has run, so the SLBA is device-absolute):
// writes are stamped from the guest payload before dispatch, and reads of
// quarantined ranges are refused with a media error before touching any
// backend. Returns false when the request was completed here. A range outside
// the partition is left alone: the dispatch it is headed for refuses it (see
// confined), and a write that will not happen must not be stamped.
func (w *worker) guardAdmit(req *request) bool {
	vc := req.vq.vc
	lba, blocks := req.cmd.SLBA(), uint64(req.cmd.Blocks())
	if !vc.part.Contains(lba, uint32(blocks)) {
		return true
	}
	switch req.cmd.Opcode() {
	case nvme.OpRead:
		if vc.guard.Quarantined(lba, blocks) {
			w.r.QuarantinedReads++
			w.completeReq(req, nvme.SCUnrecoveredRead)
			return false
		}
		vc.guardReads = append(vc.guardReads, req)
	case nvme.OpWrite:
		buf, ok := w.stage(req)
		if !ok {
			return true // unmappable payload: the data path reports it
		}
		vc.guard.Stamp(lba, buf)
		req.stamped = true
		vc.activeWrites = append(vc.activeWrites, req)
	case nvme.OpWriteZeroes:
		vc.guard.StampZeroes(lba, blocks)
		req.stamped = true
		vc.activeWrites = append(vc.activeWrites, req)
	}
	return true
}

// writeInFlight reports whether any stamped guest write overlapping
// [lba, lba+blocks) is still outstanding. While one is, the backing store
// may legitimately hold either generation, so read verification stands
// down — the scrubber's recheck protocol covers the window instead.
func (vc *Controller) writeInFlight(lba, blocks uint64) bool {
	for _, wr := range vc.activeWrites {
		wlba, wblocks := wr.cmd.SLBA(), uint64(wr.cmd.Blocks())
		if lba < wlba+wblocks && wlba < lba+blocks {
			return true
		}
	}
	return false
}

// settleWrite retires a stamped write from the active set. While guarded
// reads remain in flight, the write's extent is remembered with its
// settle time: a read admitted before it settled raced it and may carry
// either generation.
func (vc *Controller) settleWrite(req *request, now sim.Time) {
	for i, wr := range vc.activeWrites {
		if wr == req {
			vc.activeWrites = append(vc.activeWrites[:i], vc.activeWrites[i+1:]...)
			break
		}
	}
	if len(vc.guardReads) > 0 {
		vc.recentWrites = append(vc.recentWrites,
			settledRange{lba: req.cmd.SLBA(), blocks: uint64(req.cmd.Blocks()), at: now})
	}
}

// retireRead removes a completed guarded read from the in-flight set and
// reports whether a stamped write overlapping it settled during its
// lifetime (verification must stand down — the read may legitimately
// carry the pre-write generation). Settled extents no read can race
// anymore are dropped.
func (vc *Controller) retireRead(req *request) bool {
	for i, rd := range vc.guardReads {
		if rd == req {
			vc.guardReads = append(vc.guardReads[:i], vc.guardReads[i+1:]...)
			break
		}
	}
	raced := false
	lba, blocks := req.cmd.SLBA(), uint64(req.cmd.Blocks())
	for _, sw := range vc.recentWrites {
		if sw.at >= req.t0 && lba < sw.lba+sw.blocks && sw.lba < lba+blocks {
			raced = true
			break
		}
	}
	minT0 := sim.Time(0)
	for i, rd := range vc.guardReads {
		if i == 0 || rd.t0 < minT0 {
			minT0 = rd.t0
		}
	}
	if len(vc.guardReads) == 0 {
		vc.recentWrites = vc.recentWrites[:0]
	} else {
		kept := vc.recentWrites[:0]
		for _, sw := range vc.recentWrites {
			if sw.at >= minT0 {
				kept = append(kept, sw)
			}
		}
		vc.recentWrites = kept
	}
	return raced
}

// verifyGuestRead checks a successfully completed guest read's payload —
// already landed in guest memory by whichever path served it — against
// the protection info. This is the single boundary every read crosses, so
// a verification failure here is the last line: the guest gets a guard
// error, never silently wrong data.
func (w *worker) verifyGuestRead(req *request) nvme.Status {
	vc := req.vq.vc
	lba, blocks := req.cmd.SLBA(), uint64(req.cmd.Blocks())
	if vc.writeInFlight(lba, blocks) {
		return nvme.SCSuccess
	}
	buf, ok := w.stage(req)
	if !ok {
		return nvme.SCSuccess
	}
	if !vc.guard.Verify(lba, buf) {
		w.r.GuardErrors++
		return nvme.SCGuardCheck
	}
	return nvme.SCSuccess
}

// stage copies a guarded command's payload out of guest memory into the
// worker's staging buffer, which the next stage overwrites: a guard stamps or
// verifies it on the spot and keeps nothing. The PRPs are walked before the
// buffer grows, so only a transfer the walk accepted sizes it — at most
// maxPRPList list entries, about 2 MiB per worker whatever length the guest
// claims. ok is false when the payload is unmappable.
func (w *worker) stage(req *request) (buf []byte, ok bool) {
	mem := req.vq.vc.vm.Mem
	nbytes := uint32(req.cmd.Blocks()) << req.vq.vc.guardShift
	segs, err := nvme.AppendPRP(w.segs[:0], &w.entry, mem, req.cmd.PRP1(), req.cmd.PRP2(), nbytes)
	w.segs = segs
	if err != nil {
		return nil, false
	}
	if cap(w.staging) < int(nbytes) {
		w.staging = make([]byte, nbytes)
	}
	buf = w.staging[:nbytes]
	return buf, nvme.ReadSegments(mem, segs, buf) == nil
}

// finishHop handles completion of one routed hop.
func (w *worker) finishHop(h hop, t target, status nvme.Status) {
	req := h.req
	req.pending--
	if !status.OK() {
		_, errs := w.r.path(t)
		(*errs)++
		if req.status.OK() {
			req.status = status
		}
	}
	switch h.disp {
	case dispHook:
		w.classifyAndRoute(req, routeBits[t].compHook, status)
	case dispComplete:
		req.waiters--
		if req.waiters == 0 {
			st := req.status
			if st.OK() {
				st = status
			}
			w.completeReq(req, st)
		}
	}
	w.maybeRelease(req)
}

// completeReq posts the guest completion (once) and releases the entry when
// no hops remain outstanding.
func (w *worker) completeReq(req *request, status nvme.Status) {
	if req.completed {
		return
	}
	req.completed = true
	vc := req.vq.vc
	if req.stamped {
		vc.settleWrite(req, w.r.env.Now())
	}
	if vc.guard != nil && req.cmd.Opcode() == nvme.OpRead {
		raced := vc.retireRead(req)
		if status.OK() && !raced {
			status = w.verifyGuestRead(req)
		}
	}
	if !status.OK() {
		w.r.GuestErrors++
	}
	if ten := req.vq.vc.tenant; ten != nil {
		w.qos.ObserveLatency(ten, w.r.env.Now().Sub(req.t0))
	}
	var e nvme.Completion
	e.SetCID(req.gcid)
	e.SetSQID(req.vq.qid)
	e.SetSQHD(uint16(req.vq.vsq.Head()))
	e.SetStatus(status)
	req.vq.pendingVCQ = append(req.vq.pendingVCQ, e)
	w.posting.add(vc.pos)
	w.maybeRelease(req)
}

func (w *worker) maybeRelease(req *request) {
	if !req.completed && req.pending == 0 {
		// Every leg has finished but nothing completed the request: the
		// classifier orphaned it with fire-and-forget-only routing. Fail
		// it to the guest rather than wedging — a buggy classifier must
		// cost at most its own VM's request, never the router.
		w.completeReq(req, nvme.SCInternal)
		return
	}
	if req.completed && req.pending == 0 {
		req.vq.vc.outstanding--
		w.outstanding--
		if req.vq.vc.outstanding < 0 {
			panic("core: outstanding underflow")
		}
		// Mark released so double release is caught in tests.
		req.pending = -1
	}
}

// --- per-path dispatch ---------------------------------------------------

// confined is where the router enforces the tenant's extent, on every path
// and after classification: classifiers mediate — they rewrite the guest's
// LBA to a device LBA — but a classifier the verifier accepted can still get
// the arithmetic wrong, and a tenant may supply its own. A ranged command
// whose device range lies outside the partition fails its hop here and
// reaches no backend.
func (w *worker) confined(h hop, t target) bool {
	cmd := &h.req.cmd
	if !cmd.Ranged() || h.req.vq.vc.part.Contains(cmd.SLBA(), cmd.Blocks()) {
		return true
	}
	w.finishHop(h, t, nvme.SCLBAOutOfRange)
	return false
}

// dispatch sends hop h down path t: the path counts the attempt, the
// tenant's extent is enforced (see confined) and the path's send hands the
// command over. When the queue is full the hop becomes a retry record,
// attempted again once the round's completions are posted.
func (w *worker) dispatch(h hop, t target) {
	sent, _ := w.r.path(t)
	(*sent)++
	if !w.confined(h, t) {
		return
	}
	var took bool
	switch t {
	case targetHQ:
		took = w.sendHQ(h)
	case targetNQ:
		took = w.sendNQ(h)
	default:
		took = w.sendKQ(h)
	}
	if !took {
		w.r.Backpressure++
		vc := h.req.vq.vc
		vc.retry = append(vc.retry, effect{kind: effDispatch, t: t, h: h})
		w.retrying.add(vc.pos)
	}
}

// sendHQ forwards the hop's command to the shadowing host queue under a free
// host tag and arms the hop's deadline. It reports false when no tag is free
// or the HSQ is full.
func (w *worker) sendHQ(h hop) bool {
	vq := h.req.vq
	vc := vq.vc
	if len(vq.freeHTags) == 0 || vq.hqp.SQ.Full() {
		return false
	}
	htag := vq.freeHTags[len(vq.freeHTags)-1]
	vq.freeHTags = vq.freeHTags[:len(vq.freeHTags)-1]
	vq.htags[htag] = h
	cmd := h.req.cmd
	cmd.SetCID(htag)
	// The guest driver always addresses NSID 1 of its virtual controller;
	// the attachment's partition says which device namespace that maps to
	// (clone namespaces sit at NSID >= 2).
	cmd.SetNSID(vc.part.NSID)
	if !vq.hqp.SQ.Push(&cmd) {
		// Backpressure, not a panic: give the tag back, exactly like the
		// full-before-check case.
		vq.htags[htag] = hop{}
		vq.freeHTags = append(vq.freeHTags, htag)
		return false
	}
	vq.dispatchSeq++
	vq.htagSeq[htag] = vq.dispatchSeq
	if dl := w.r.FastPathDeadline; dl > 0 {
		vq.hops.Add(uint32(htag), vq.dispatchSeq, w.r.env.Now().Add(dl))
	}
	vc.part.Dev.Ring(vq.hqp.SQ.ID)
	return true
}

// sendNQ exports the hop's command to the attached UIF via the notify queues.
// It reports false when the NSQ is full; with no UIF attached the hop fails.
func (w *worker) sendNQ(h hop) bool {
	vc := h.req.vq.vc
	if vc.nq == nil {
		w.finishHop(h, targetNQ, nvme.SCInternal)
		return true
	}
	if vc.nq.nsq.Full() {
		return false
	}
	vc.nextNTag++
	tag := vc.nextNTag
	vc.ntags[tag] = ntagEntry{h: h, at: w.r.env.Now()}
	cmd := h.req.cmd
	cmd.SetCID(tag)
	if !vc.nq.nsq.Push(&cmd) {
		// Backpressure, not a panic: drop the tag (it stays spent).
		delete(vc.ntags, tag)
		return false
	}
	vc.nq.notify()
	return true
}

// ntagEntry is one in-flight notify-path hop, timestamped at dispatch so
// the supervision watchdog can enforce NSQ residency deadlines.
type ntagEntry struct {
	h  hop
	at sim.Time
}

// takeNTag claims the hop for a notify completion tag.
func (vc *Controller) takeNTag(tag uint16) (hop, bool) {
	ent, ok := vc.ntags[tag]
	delete(vc.ntags, tag)
	return ent.h, ok
}

// NotifyInFlight returns the number of notify-path hops dispatched and not
// yet completed — commands resident in the NSQ or being serviced by the
// attached UIF. Watchdog-side API.
func (vc *Controller) NotifyInFlight() int { return len(vc.ntags) }

// OldestNotifyAge returns how long the oldest in-flight notify-path hop
// has been outstanding at now (0 when none are in flight). Watchdog-side
// API: a healthy UIF bounds this by its service time, so an age beyond
// the residency deadline means the commands are stranded.
func (vc *Controller) OldestNotifyAge(now sim.Time) sim.Duration {
	var oldest sim.Duration
	for _, ent := range vc.ntags {
		if age := now.Sub(ent.at); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// sendKQ sends the hop's command down the host kernel block layer, which
// never refuses one; with no kernel target installed the hop fails.
func (w *worker) sendKQ(h hop) bool {
	vc := h.req.vq.vc
	if vc.kt == nil {
		w.finishHop(h, targetKQ, nvme.SCInternal)
		return true
	}
	vc.kt.Submit(h.req.cmd, vc.vm.Mem, func(st nvme.Status) {
		// The block layer completes on its own context; the completion
		// joins the owning shard's inbox.
		w.comps = append(w.comps, effect{kind: effFinish, t: targetKQ, st: st, h: h})
		w.hint()
	})
	return true
}

// encode helpers used by classifier config maps (documented layout for the
// standard partition-translation config entry).
const (
	// CfgPartStart and CfgPartBlocks are u64 offsets in config map entry 0.
	CfgPartStart  = 0
	CfgPartBlocks = 8
	CfgValueSize  = 16
)

// NewPartitionConfigMap builds the standard config map for LBA-translating
// classifiers: entry 0 holds the partition start LBA and size.
func NewPartitionConfigMap(part device.Partition) *ebpf.ArrayMap {
	m := ebpf.NewArrayMap(CfgValueSize, 1)
	m.SetU64(0, CfgPartStart, part.Start)
	m.SetU64(0, CfgPartBlocks, part.Blocks)
	return m
}

var _ vm.Port = (*Controller)(nil)

// DebugState renders the controller's routing-table state for diagnostics
// (exposed to the control plane and tests).
func (vc *Controller) DebugState() string {
	s := fmt.Sprintf("outstanding=%d ntags=%d retry=%d workerAsleep=%v comps=%d ctrl=%d",
		vc.outstanding, len(vc.ntags), len(vc.retry), vc.w.asleep, len(vc.w.comps), len(vc.w.ctrl))
	if vc.nq != nil {
		s += fmt.Sprintf(" nsq=%d ncq=%d", vc.nq.nsq.Len(), vc.nq.ncq.Len())
	}
	for _, vq := range vc.vqs {
		s += fmt.Sprintf(" [q%d vsq=%d hsq=%d hcq=%d pendVCQ=%d freeHTags=%d]",
			vq.qid, vq.vsq.Len(), vq.hqp.SQ.Len(), vq.hqp.CQ.Len(), len(vq.pendingVCQ), len(vq.freeHTags))
	}
	return s
}
