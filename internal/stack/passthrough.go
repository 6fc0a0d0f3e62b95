package stack

import (
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// Passthrough assigns device queues directly to the guest (VFIO-style PCIe
// passthrough). No host software touches the data path; the only
// virtualization cost is forwarding the device's completion interrupts into
// the guest, which is why the paper measures it with the lowest CPU but a
// higher median latency than the polling solutions.
type Passthrough struct {
	h *Host
}

// NewPassthrough creates the solution.
func NewPassthrough(h *Host) *Passthrough { return &Passthrough{h: h} }

// Provision implements Solution. Passthrough exposes the namespace as-is
// (no mediation layer exists to translate partitions), so part must start
// at LBA 0.
func (s *Passthrough) Provision(v *vm.VM, part device.Partition) vm.Disk {
	if part.Start != 0 {
		panic("stack: passthrough cannot expose a partition (no mediation layer)")
	}
	port := &ptPort{h: s.h, v: v, part: part, qps: make(map[uint16]*nvme.QueuePair)}
	return vm.NewNVMeDisk(v, port, 128, s.h.Params.Driver)
}

type ptPort struct {
	h    *Host
	v    *vm.VM
	part device.Partition
	qps  map[uint16]*nvme.QueuePair
}

func (p *ptPort) Namespace() nvme.NamespaceInfo { return p.part.Info() }

func (p *ptPort) CreateQP(depth uint32) *nvme.QueuePair {
	qp := p.part.Dev.CreateQueuePair(depth, p.v.Mem)
	p.qps[qp.SQ.ID] = qp
	return qp
}

// Ring is a posted MMIO write straight to device hardware: free.
func (p *ptPort) Ring(qid uint16) { p.part.Dev.Ring(qid) }

// SetIRQ installs the physical-interrupt forwarding path: device MSI-X ->
// host IRQ handler -> KVM injection -> guest, costing host CPU and latency.
func (p *ptPort) SetIRQ(qid uint16, fn func()) {
	qp := p.qps[qid]
	cond := sim.NewCond(p.h.Env)
	qp.CQ.OnPost = func() { cond.Signal(nil) }
	th := p.h.hostThread("kernel/irq")
	fwd := p.v.Costs.HWIRQForward
	hostCost := p.h.Params.PTHostIRQ
	// The forwarder is a continuation (Cond.WaitFunc, Thread.ExecFunc), not
	// a process: host handler cost, forwarding delay, guest callback, wait.
	// It starts waiting one event from now; an interrupt raised while it is
	// busy finds no waiter.
	var wait, host, forward, deliver func()
	wait = func() { cond.WaitFunc(host) }
	host = func() { th.ExecFunc(hostCost, forward) }
	forward = func() { p.h.Env.After(max(fwd, 0), deliver) }
	deliver = func() {
		fn()
		wait()
	}
	p.h.Env.After(0, wait)
}
