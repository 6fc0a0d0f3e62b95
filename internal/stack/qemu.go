package stack

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// QEMU is the userspace virtio-blk baseline: guest kicks trap to the VMM,
// iothreads run QEMU's coroutine block layer and submit to the host kernel
// via io_uring. Per-request userspace costs are high, but several iothreads
// share the work and the block layer merges adjacent sequential requests —
// which is how QEMU regains throughput at high queue depths in Fig. 3 while
// remaining the worst performer at low QD and in latency (Fig. 4).
type QEMU struct {
	h *Host
}

// NewQEMU creates the solution.
func NewQEMU(h *Host) *QEMU { return &QEMU{h: h} }

// Provision implements Solution.
func (s *QEMU) Provision(v *vm.VM, part device.Partition) vm.Disk {
	q := &qemuVM{
		h:         s.h,
		v:         v,
		bdev:      blockdev.NewNVMeBlockDev(s.h.Env, part, s.h.CPU, s.h.guestCores, s.h.Params.Block),
		plugSince: make(map[*virtio.Queue]sim.Time),
	}
	q.hint = q.hintAny
	disk := virtio.NewBlkDisk(v, q, part.Info(), 256, s.h.Params.Driver)
	q.queues = disk.Queues()
	for i := 0; i < s.h.Params.QEMUIOThreads; i++ {
		it := &qemuIOThread{
			q:        q,
			th:       s.h.hostThread("qemu"),
			ring:     blockdev.NewURing(s.h.Env, q.bdev, s.h.Params.URing),
			wake:     sim.NewCond(s.h.Env),
			inflight: make(map[uint64]*qemuInflight),
			turnDue:  true,
		}
		it.stepTurn, it.stepReaped, it.stepComplete, it.stepCompleted = it.turn, it.reapedAll, it.complete, it.completed
		it.stepInjected, it.stepElem, it.stepNext, it.stepSubmit = it.injected, it.elem, it.next, it.submit
		it.stepWoken, it.stepAwake, it.stepLook = it.woken, it.awake, it.look
		// io_uring completions wake the iothread that owns the ring.
		it.ring.OnComp = func() {
			if it.asleep {
				it.asleep = false
				it.wake.Signal(nil)
			}
		}
		q.threads = append(q.threads, it)
		s.h.Env.After(0, it.stepTurn)
	}
	return disk
}

// qemuVM is one QEMU process: iothreads work-steal across all virtqueues.
type qemuVM struct {
	h         *Host
	v         *vm.VM
	bdev      *blockdev.NVMeBlockDev
	queues    []*virtio.Queue
	threads   []*qemuIOThread
	plugSince map[*virtio.Queue]sim.Time
	hint      func() // hintAny, bound once: what a kick does once it has trapped
	busy      int    // iothreads currently processing (kick suppression)
	inflightN int    // merged submissions in flight across all iothreads
}

// qemuIOThread is one event-loop thread with its own io_uring. Its loop runs
// as continuations: each step resumes the turn at its cursor.
type qemuIOThread struct {
	q      *qemuVM
	th     *sim.Thread
	ring   *blockdev.URing
	wake   *sim.Cond
	asleep bool

	inflight map[uint64]*qemuInflight // merged submissions by io_uring user data
	nextID   uint64

	// Carried from turn to turn: whether the event-loop turn is owed (see
	// payTurn), and the adaptive-polling state.
	turnDue, pollWorthwhile bool
	lastWork, pollEnd       sim.Time
	idleSpin                sim.Duration

	// The turn's cursor: what it found so far, the completions it reaped and
	// the next one, the queue it is popping, the batch popped there (its
	// requests' types and sectors) and the run of it being merged, and the
	// merged request between its charges.
	did, plugged bool
	reaped       []blockdev.URingCQE
	k, vi, i, j  int
	batch        []virtio.DeviceReq
	sectors      []uint64
	types        []uint32
	fl           *qemuInflight
	status       byte

	// The loop's steps, bound once.
	stepTurn, stepReaped, stepComplete, stepCompleted, stepInjected func()
	stepElem, stepNext, stepSubmit, stepWoken, stepAwake            func()
	stepLook                                                        func(int) sim.Time
}

// Kick implements virtio.Transport: an ioeventfd MMIO write traps the vCPU
// out of guest mode, and QEMU then wakes an iothread. Notification is
// suppressed (EVENT_IDX) while an iothread is already busy.
func (q *qemuVM) Kick(vq *virtio.Queue) (sim.Duration, func()) {
	if q.busy > 0 {
		return 0, nil
	}
	return q.v.Costs.VMExit, q.hint
}

// hintAny wakes one sleeping iothread to pick up new vring work.
func (q *qemuVM) hintAny() {
	for _, it := range q.threads {
		if it.asleep {
			it.asleep = false
			it.wake.Signal(nil)
			return
		}
	}
}

// inflight tracks one merged submission.
type qemuInflight struct {
	reqs []virtio.DeviceReq
	vq   *virtio.Queue
	read bool
	buf  []byte
}

// turn is the top of the event loop: reap io_uring completions, then copy
// read data into guest pages, complete chains and inject the interrupt.
func (it *qemuIOThread) turn() {
	it.did, it.plugged = false, false
	it.q.busy++
	it.reaped, it.k = it.reaped[:0], 0
	if it.ring.Pending() == 0 {
		it.complete() // nothing reaped: on to the queues
		return
	}
	it.reaped = it.ring.Reap(it.th, it.reaped, 32, it.stepReaped)
}

func (it *qemuIOThread) reapedAll() { it.payTurn(it.stepComplete) }

// payTurn charges the event-loop turn (ppoll return, fd dispatch, bottom
// halves) before then when it is owed: a sleeping thread woken to process
// work pays it, a thread in the adaptive-polling window picks work up
// without it.
func (it *qemuIOThread) payTurn(then func()) {
	if it.turnDue {
		it.turnDue = false
		it.th.ExecFunc(it.q.h.Params.QEMUBatch, then)
		return
	}
	then()
}

// complete charges the dispatch of the next reaped completion — one per
// (merged) request, plus a small per-element cost to unmap and return each
// chain — or moves on to the queues.
func (it *qemuIOThread) complete() {
	if it.k == len(it.reaped) {
		it.vi = 0
		it.pop()
		return
	}
	cqe := it.reaped[it.k]
	it.k++
	fl := it.inflight[cqe.UserData]
	delete(it.inflight, cqe.UserData)
	it.q.inflightN--
	it.fl, it.status = fl, 0
	if !cqe.Status.OK() {
		it.status = 1
	}
	it.th.ExecFunc(it.q.h.Params.QEMUComplete+sim.Microsecond*sim.Duration(len(fl.reqs)), it.stepCompleted)
}

func (it *qemuIOThread) completed() {
	fl := it.fl
	off := 0
	for i := range fl.reqs {
		r := &fl.reqs[i]
		if fl.read && it.status == 0 {
			r.WriteData(fl.vq, fl.buf[off:off+r.DataLen()])
		}
		off += r.DataLen()
		r.Complete(fl.vq, it.status)
	}
	it.th.ExecFunc(it.q.h.Params.QEMUInject, it.stepInjected) // KVM interrupt injection ioctl
}

func (it *qemuIOThread) injected() {
	it.fl.vq.Interrupt()
	it.fl = nil
	it.did = true
	it.complete()
}

// pop pops the available chains of the queues from the cursor on, merging
// sequential neighbours, and charges each batch. Under load (a deep device
// pipeline) it plugs briefly so sequential requests accumulate and merge, as
// QEMU's blk_io_plug does. Past the last queue the turn ends.
func (it *qemuIOThread) pop() {
	q := it.q
	now := q.h.Env.Now()
	for ; it.vi < len(q.queues); it.vi++ {
		vq := q.queues[it.vi]
		avail := int(vq.Ring.AvailCount())
		if avail == 0 {
			continue
		}
		if q.inflightN >= 1 && avail < 6 {
			since, seen := q.plugSince[vq]
			if !seen {
				q.plugSince[vq] = now
				it.plugged = true
				continue
			}
			if now.Sub(since) < 10*sim.Microsecond {
				it.plugged = true
				continue
			}
		}
		delete(q.plugSince, vq)
		// A merged request keeps its run of the batch, so each batch is
		// new.
		it.batch, it.sectors, it.types = nil, it.sectors[:0], it.types[:0]
		for len(it.batch) < 32 {
			r, ok := vq.PopRequest()
			if !ok {
				break
			}
			t, sector := r.BlkHeader(vq)
			it.batch = append(it.batch, r)
			it.sectors = append(it.sectors, sector)
			it.types = append(it.types, t)
		}
		if len(it.batch) == 0 {
			continue
		}
		it.did = true
		it.i = 0
		it.payTurn(it.stepElem)
		return
	}
	it.idle()
}

func (it *qemuIOThread) elem() {
	it.th.ExecFunc(it.q.h.Params.QEMUElem*sim.Duration(len(it.batch)), it.stepNext)
}

// next submits the batch from the cursor on: a flush or discard as a bio of
// its own, a run of adjacent same-type requests as one merged io_uring
// submission, charged to the block layer first. Past the batch's end it
// moves on to the next queue.
func (it *qemuIOThread) next() {
	q, par := it.q, it.q.h.Params
	if it.i == len(it.batch) {
		it.batch = nil
		it.vi++
		it.pop()
		return
	}
	vq := q.queues[it.vi]
	i := it.i
	r, t := it.batch[i], it.types[i]
	if t == virtio.BlkTFlush || t == virtio.BlkTDiscard {
		bio := &blockdev.Bio{Op: blockdev.BioFlush, OnDone: func(st nvme.Status) {
			status := byte(0)
			if !st.OK() {
				status = 1
			}
			r.Complete(vq, status)
			vq.Interrupt()
		}}
		if t == virtio.BlkTDiscard {
			bio.Op = blockdev.BioDiscard
			bio.Sector, bio.NSect = r.DiscardSegment(vq)
		}
		it.i++
		q.bdev.SubmitFunc(it.th, bio, it.stepNext)
		return
	}
	// Merge run of adjacent same-type requests.
	j := i + 1
	total := r.DataLen()
	for j < len(it.batch) && it.types[j] == t &&
		it.sectors[j] == it.sectors[j-1]+uint64(it.batch[j-1].DataLen())/512 &&
		total+it.batch[j].DataLen() <= par.QEMUMergeMax {
		total += it.batch[j].DataLen()
		j++
	}
	fl := &qemuInflight{reqs: it.batch[i:j], vq: vq, read: t == virtio.BlkTIn, buf: make([]byte, total)}
	if t == virtio.BlkTOut {
		off := 0
		for k := i; k < j; k++ {
			it.batch[k].ReadData(vq, fl.buf[off:off+it.batch[k].DataLen()])
			off += it.batch[k].DataLen()
		}
	}
	it.nextID++
	it.inflight[it.nextID] = fl
	q.inflightN++
	it.fl, it.j = fl, j
	it.th.ExecFunc(par.QEMUSubmit, it.stepSubmit) // block layer, per merged request
}

func (it *qemuIOThread) submit() {
	op := blockdev.BioRead
	if it.types[it.i] == virtio.BlkTOut {
		op = blockdev.BioWrite
	}
	sector, buf := it.sectors[it.i], it.fl.buf
	it.fl, it.i = nil, it.j
	it.ring.Submit(it.th, op, sector, buf, it.nextID, it.stepNext)
}

// idle ends the turn. A turn that did nothing polls on while a plug timer
// runs, spins out the adaptive-polling window (iothread poll-max-ns) while
// recent event spacing suggests polling will succeed, and otherwise blocks
// in ppoll and pays the wake-up plus a fresh event-loop turn — the QD1
// regime.
func (it *qemuIOThread) idle() {
	q, par := it.q, it.q.h.Params
	now := q.h.Env.Now()
	q.busy--
	if it.did {
		if gap := now.Sub(it.lastWork); gap < par.QEMUPollNS {
			it.pollWorthwhile = true
		}
		it.lastWork = now
		it.idleSpin = 0
		it.turn()
		return
	}
	if it.plugged {
		// Keep polling: a plug timer is running.
		it.th.ExecFunc(sim.Microsecond, it.stepTurn)
		return
	}
	if it.pollWorthwhile && it.idleSpin < par.QEMUPollNS {
		// Event spacing suggests more work is imminent: spin out the poll
		// window (nothing is plugged, so only a completion, an available
		// chain or the window's end changes what the next round finds).
		it.pollEnd = now.Add(par.QEMUPollNS - it.idleSpin)
		it.th.SpinFunc(sim.Microsecond, it.stepLook, it.stepTurn)
		return
	}
	it.pollWorthwhile = false
	it.asleep = true
	it.wake.WaitFunc(it.stepWoken)
}

// look is the unplugged turn reduced to looking, for the rounds of the poll
// window that SpinFunc runs; it credits the rounds to the window.
func (it *qemuIOThread) look(rounds int) sim.Time {
	it.idleSpin += sim.Duration(rounds) * sim.Microsecond
	if it.ring.Pending() > 0 || it.q.anyAvail() {
		return 0
	}
	return it.pollEnd
}

func (it *qemuIOThread) woken() { it.q.h.afterWake(it.stepAwake) }

func (it *qemuIOThread) awake() {
	it.asleep = false
	it.turnDue = true
	it.idleSpin = 0
	it.turn()
}

func (q *qemuVM) anyAvail() bool {
	for _, vq := range q.queues {
		if vq.Ring.AvailPending() {
			return true
		}
	}
	return false
}
