package stack

import (
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// MDev is the MDev-NVMe baseline (Peng et al., ATC'18 / Levitsky's VFIO
// mediated device): virtual queue shadowing with an actively-polling host
// kernel thread that performs LBA translation inside the module. NVMetro is
// built on this mechanism; the delta between the two is exactly the
// classifier/router layer.
type MDev struct {
	h *Host
}

// NewMDev creates the solution (one polling thread per VM, as in the
// paper's main evaluations).
func NewMDev(h *Host) *MDev { return &MDev{h: h} }

// Provision implements Solution.
func (s *MDev) Provision(v *vm.VM, part device.Partition) vm.Disk {
	port := &mdevPort{
		h: s.h, v: v, part: part,
		wake: sim.NewCond(s.h.Env),
		th:   s.h.hostThread("mdev"),
	}
	port.stepRound, port.stepApply, port.stepLook = port.round, port.apply, port.look
	s.h.Env.After(0, port.stepRound)
	return vm.NewNVMeDisk(v, port, 128, s.h.Params.Driver)
}

type mdevVQ struct {
	qid       uint16
	vsq       *nvme.SQ
	vcq       *nvme.CQ
	hqp       *nvme.QueuePair
	irq       func()
	freeTags  []uint16
	guestCIDs []uint16
}

type mdevPort struct {
	h           *Host
	v           *vm.VM
	part        device.Partition
	vqs         []*mdevVQ
	th          *sim.Thread
	nextQID     uint16
	wake        *sim.Cond
	asleep      bool
	outstanding int

	gathered int      // queue pairs the last gather walked
	effects  []func() // the round's effects; the backing array is reused

	// The poll loop's steps, bound once.
	stepRound, stepApply func()
	stepLook             func(int) sim.Time
}

func (p *mdevPort) Namespace() nvme.NamespaceInfo { return p.part.Info() }

func (p *mdevPort) CreateQP(depth uint32) *nvme.QueuePair {
	p.nextQID++
	vq := &mdevVQ{
		qid:       p.nextQID,
		vsq:       nvme.NewSQ(p.nextQID, depth),
		vcq:       nvme.NewCQ(p.nextQID, depth),
		hqp:       p.part.Dev.CreateQueuePair(depth, p.v.Mem),
		guestCIDs: make([]uint16, depth),
	}
	for i := uint16(0); i < uint16(depth); i++ {
		vq.freeTags = append(vq.freeTags, i)
	}
	p.vqs = append(p.vqs, vq)
	return &nvme.QueuePair{SQ: vq.vsq, CQ: vq.vcq}
}

func (p *mdevPort) Ring(qid uint16) {
	if p.asleep {
		p.asleep = false
		p.wake.Signal(nil)
	}
}

func (p *mdevPort) SetIRQ(qid uint16, fn func()) {
	for _, vq := range p.vqs {
		if vq.qid == qid {
			vq.irq = fn
			return
		}
	}
	// A guest configuration error is ignored rather than a panic.
}

// round is one pass of the MDev polling loop: shadow VSQs into host queues
// with in-module mediation, shadow HCQs back into VCQs, charge the pass and
// then apply its effects; with nothing found it spins while commands are in
// flight and parks otherwise.
func (p *mdevPort) round() {
	work := p.gather()
	if len(p.effects) == 0 {
		if p.outstanding == 0 {
			p.asleep = true
			p.wake.WaitFunc(p.stepRound)
			return
		}
		// Commands are in flight: spin until a round has something
		// to look at.
		p.th.SpinFunc(work, p.stepLook, p.stepRound)
		return
	}
	p.th.ExecFunc(work, p.stepApply)
}

// apply lands the round's effects once its CPU time is charged, and starts
// the next round.
func (p *mdevPort) apply() {
	for _, fn := range p.effects {
		fn()
	}
	p.round()
}

// look is the gather reduced to looking, for the rounds SpinFunc runs.
// Every gather condition is event-driven; a queue pair created since the
// last gather changes what a round costs.
func (p *mdevPort) look(int) sim.Time {
	if len(p.vqs) != p.gathered {
		return 0
	}
	for _, vq := range p.vqs {
		if vq.hqp.CQ.Peek() || !vq.vsq.Empty() && len(vq.freeTags) > 0 && !vq.hqp.SQ.Full() {
			return 0
		}
	}
	return sim.Never
}

// gather takes what every queue pair has to offer, leaving the effects in
// p.effects, and returns the CPU time the round costs.
func (p *mdevPort) gather() (work sim.Duration) {
	c := p.h.Params
	p.gathered = len(p.vqs)
	clear(p.effects) // drop the previous round's closures
	p.effects = p.effects[:0]
	for _, vq := range p.vqs {
		vq := vq
		work += c.Router.PollVQ
		var cmd nvme.Command
		newDone := 0 // VCQ entries this round posts, rejections included: each is owed the interrupt
		for !vq.vsq.Empty() && len(vq.freeTags) > 0 && !vq.hqp.SQ.Full() {
			vq.vsq.Pop(&cmd)
			p.outstanding++
			work += c.MDevMediate
			gcid := cmd.CID()
			// In-module mediation: bounds check + LBA translation.
			if cmd.Ranged() {
				dlba, ok := p.part.Translate(cmd.SLBA(), cmd.Blocks())
				if !ok {
					work += c.Router.CompleteVCQ
					p.effects = append(p.effects, func() {
						vq.vcq.Post(gcid, vq.qid, vq.vsq.Head(), nvme.SCLBAOutOfRange, 0)
						p.outstanding--
					})
					newDone++
					continue
				}
				cmd.SetSLBA(dlba)
			}
			htag := vq.freeTags[len(vq.freeTags)-1]
			vq.freeTags = vq.freeTags[:len(vq.freeTags)-1]
			vq.guestCIDs[htag] = gcid
			cmd.SetCID(htag)
			hc := cmd
			p.effects = append(p.effects, func() {
				vq.hqp.SQ.Push(&hc)
				p.part.Dev.Ring(vq.hqp.SQ.ID)
			})
		}
		var e nvme.Completion
		for vq.hqp.CQ.Pop(&e) {
			htag := e.CID()
			gcid := vq.guestCIDs[htag]
			vq.freeTags = append(vq.freeTags, htag)
			st := e.Status()
			work += c.Router.CompleteVCQ
			p.effects = append(p.effects, func() {
				vq.vcq.Post(gcid, vq.qid, vq.vsq.Head(), st, 0)
				p.outstanding--
			})
			newDone++
		}
		if newDone > 0 {
			work += c.Router.IRQInject
			p.effects = append(p.effects, func() {
				if vq.irq != nil {
					vq.irq()
				}
			})
		}
	}
	return work
}
