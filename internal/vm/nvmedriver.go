package vm

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Port is what the guest NVMe driver plugs into: a virtual or physical NVMe
// controller exposing queue pairs. Implementations are the passthrough
// device binding, MDev-NVMe, and NVMetro's virtual controller.
type Port interface {
	// Namespace geometry seen by the guest.
	Namespace() nvme.NamespaceInfo
	// CreateQP allocates an I/O queue pair of the given depth. The returned
	// queues live in memory shared between guest and controller.
	CreateQP(depth uint32) *nvme.QueuePair
	// Ring is the submission doorbell for a queue. For mediated,
	// shadow-doorbell controllers it may be a no-op (the host polls).
	Ring(qid uint16)
	// SetIRQ registers the guest's completion interrupt callback for a
	// queue. The port is responsible for modeling delivery cost and delay;
	// fn runs in callback context (non-blocking).
	SetIRQ(qid uint16, fn func())
}

// DriverCosts models the guest NVMe driver's per-command CPU costs
// (block layer + driver submission path, and per-CQE completion handling).
type DriverCosts struct {
	Submit   sim.Duration
	Complete sim.Duration
}

// DefaultDriverCosts returns the calibrated guest driver cost model.
func DefaultDriverCosts() DriverCosts {
	return DriverCosts{Submit: 800 * sim.Nanosecond, Complete: 700 * sim.Nanosecond}
}

// qpState is a per-queue-pair driver context: tag allocation, outstanding
// request tracking and the completion interrupt handler.
type qpState struct {
	d         *NVMeDisk
	qp        *nvme.QueuePair
	vcpu      *sim.Thread
	reqs      []*Req     // by CID
	listPages [][]uint64 // preallocated PRP list pages by CID
	free      []uint16   // free CIDs
	slotCond  *sim.Cond  // waiters for a free slot
	irqCond   *sim.Cond  // completion notification

	// The interrupt handler is a continuation on the vCPU (Cond.WaitFunc,
	// Thread.ExecFunc), not a process; cqe is the entry it is completing.
	cqe                    nvme.Completion
	entry, drain, complete func() // its steps, bound once
}

// NVMeDisk is the guest NVMe driver: it implements Disk on top of a Port,
// with one queue pair per vCPU (NVMe's lockless per-CPU queue model).
type NVMeDisk struct {
	vm    *VM
	port  Port
	costs DriverCosts
	info  nvme.NamespaceInfo
	qps   map[*sim.Thread]*qpState
	order []*qpState
}

// NewNVMeDisk initializes the driver: creates one queue pair of the given
// depth per vCPU and starts the completion handlers.
func NewNVMeDisk(v *VM, port Port, depth uint32, costs DriverCosts) *NVMeDisk {
	d := &NVMeDisk{vm: v, port: port, costs: costs, info: port.Namespace(), qps: make(map[*sim.Thread]*qpState)}
	for i := 0; i < v.NumVCPUs(); i++ {
		st := d.newQP(v.VCPU(i), depth)
		port.SetIRQ(st.qp.SQ.ID, func() { st.irqCond.Signal(nil) })
		// The handler starts waiting one event from now; an interrupt
		// before that finds nobody, like any interrupt it is busy for.
		v.Env.After(0, st.irqWait)
	}
	return d
}

// newQP creates the queue pair of one vCPU, its handler not yet wired.
func (d *NVMeDisk) newQP(vcpu *sim.Thread, depth uint32) *qpState {
	v := d.vm
	st := &qpState{
		d:        d,
		qp:       d.port.CreateQP(depth),
		vcpu:     vcpu,
		reqs:     make([]*Req, depth),
		slotCond: sim.NewCond(v.Env),
		irqCond:  sim.NewCond(v.Env),
	}
	st.listPages = make([][]uint64, depth)
	for cid := uint16(0); cid < uint16(depth); cid++ {
		st.free = append(st.free, cid)
		// One PRP list page per slot supports transfers to 2 MiB.
		st.listPages[cid] = []uint64{v.Mem.MustAllocPages(1)}
	}
	st.entry, st.drain, st.complete = st.irqEntry, st.irqDrain, st.irqComplete
	d.qps[vcpu] = st
	d.order = append(d.order, st)
	return st
}

// BlockSize implements Disk.
func (d *NVMeDisk) BlockSize() uint32 { return d.info.BlockSize() }

// Blocks implements Disk.
func (d *NVMeDisk) Blocks() uint64 { return d.info.Size }

func (d *NVMeDisk) qpFor(vcpu *sim.Thread) *qpState {
	if st := d.qps[vcpu]; st != nil {
		return st
	}
	// Foreign thread (e.g. host-side test): use the first queue.
	return d.order[0]
}

// nvmeSubmission is one request's way through SubmitFunc, kept on the
// request (Req.DriverState).
type nvmeSubmission struct {
	r     *Req
	st    *qpState
	then  func()
	issue func() // issueOrWait, bound once
}

// SubmitFunc implements Disk. The submission cost is an ExecFunc on vcpu;
// then, if the queue or tag space is full, the request waits on the slot
// condition and looks again at every wake — a guest block layer with a
// bounded device queue. Once there is room it builds the NVMe command
// (including the PRP chain written into guest memory), pushes it to the
// per-vCPU submission queue, rings the doorbell and runs then.
func (d *NVMeDisk) SubmitFunc(vcpu *sim.Thread, r *Req, then func()) {
	s, ok := r.DriverState.(*nvmeSubmission)
	if !ok {
		s = &nvmeSubmission{r: r}
		s.issue = s.issueOrWait
		r.DriverState = s
	}
	s.st, s.then = d.qpFor(vcpu), then
	r.Submitted = d.vm.Env.Now()
	vcpu.ExecFunc(d.costs.Submit, s.issue)
}

func (s *nvmeSubmission) issueOrWait() {
	if s.st.full() {
		s.st.slotCond.WaitFunc(s.issue)
		return
	}
	s.st.issue(s.r)
	s.then()
}

// full reports whether a submission has to wait for a tag or for SQ room.
func (st *qpState) full() bool { return len(st.free) == 0 || st.qp.SQ.Full() }

// issue takes a free tag for r and hands its command to the controller.
func (st *qpState) issue(r *Req) {
	d := st.d
	cid := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	st.reqs[cid] = r

	var cmd nvme.Command
	switch r.Op {
	case OpFlush:
		cmd = nvme.NewFlush(cid, 1)
	case OpTrim:
		cmd = nvme.Command{}
		cmd.SetOpcode(nvme.OpDSM)
		cmd.SetCID(cid)
		cmd.SetNSID(1)
		cmd.SetSLBA(r.LBA)
		cmd.SetNLB(uint16(r.Blocks - 1))
	default:
		op := nvme.OpRead
		if r.Op == OpWrite {
			op = nvme.OpWrite
		}
		lp := st.listPages[cid]
		li := 0
		alloc := func() uint64 {
			if li >= len(lp) {
				panic("vm: transfer exceeds preallocated PRP list pages")
			}
			a := lp[li]
			li++
			return a
		}
		prp1, prp2, err := nvme.BuildPRP(d.vm.Mem, r.BufPages, alloc)
		if err != nil {
			panic(err)
		}
		cmd = nvme.NewRW(op, cid, 1, r.LBA, r.Blocks, prp1, prp2)
	}

	if !st.qp.SQ.Push(&cmd) {
		panic("vm: SQ full after slot reservation")
	}
	d.port.Ring(st.qp.SQ.ID)
}

// The completion interrupt handler: interrupt -> entry cost on the owning
// vCPU -> pop -> per-CQE cost -> bookkeeping -> pop ... -> wait. Every step
// that takes time is one ExecFunc, so the handler contends for the vCPU
// with the guest's submitting processes FIFO, as an interrupt thread would.
// An interrupt raised while it runs finds no waiter and is dropped: the
// drain loop finds that entry by itself.

func (st *qpState) irqWait() { st.irqCond.WaitFunc(st.entry) }

func (st *qpState) irqEntry() { st.vcpu.ExecFunc(st.d.vm.Costs.GuestIRQ, st.drain) }

func (st *qpState) irqDrain() {
	if !st.qp.CQ.Pop(&st.cqe) {
		st.irqWait()
		return
	}
	st.vcpu.ExecFunc(st.d.costs.Complete, st.complete)
}

func (st *qpState) irqComplete() {
	cid := st.cqe.CID()
	r := st.reqs[cid]
	if r == nil {
		panic(fmt.Sprintf("vm: completion for idle cid %d", cid))
	}
	st.reqs[cid] = nil
	st.free = append(st.free, cid)
	st.slotCond.Signal(nil)
	r.Complete(st.d.vm.Env, st.cqe.Status())
	st.irqDrain()
}
