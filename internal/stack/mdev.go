package stack

import (
	"fmt"

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

// Name implements Solution.
func (s *MDev) Name() string { return "MDev" }

// Provision implements Solution.
func (s *MDev) Provision(v *vm.VM, part device.Partition) vm.Disk {
	port := &mdevPort{
		h: s.h, v: v, part: part,
		wake: sim.NewCond(s.h.Env),
		th:   s.h.HostThread("mdev"),
	}
	s.h.Env.Go(fmt.Sprintf("mdev-poll-vm%d", v.ID), port.poll)
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
	badQIDs     uint64 // guest SetIRQ calls naming an unknown queue
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
	// Guest configuration error: count and ignore rather than panic.
	p.badQIDs++
}

// poll is the MDev polling loop: shadow VSQs into host queues with
// in-module mediation, shadow HCQs back into VCQs.
func (p *mdevPort) poll(pr *sim.Proc) {
	c := p.h.Params
	// look is the gather below reduced to looking, for the rounds Spin runs
	// without this process. Every gather condition is event-driven; a queue
	// pair created since the last gather changes what a round costs.
	gathered := 0
	look := func(int) sim.Time {
		if len(p.vqs) != gathered {
			return 0
		}
		for _, vq := range p.vqs {
			if vq.hqp.CQ.Peek() || !vq.vsq.Empty() && len(vq.freeTags) > 0 && !vq.hqp.SQ.Full() {
				return 0
			}
		}
		return sim.Never
	}
	var effects []func() // backing array reused across rounds
	for {
		var work sim.Duration
		gathered = len(p.vqs)
		clear(effects) // drop the previous round's closures
		effects = effects[:0]
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
						effects = append(effects, func() {
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
				effects = append(effects, func() {
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
				effects = append(effects, func() {
					vq.vcq.Post(gcid, vq.qid, vq.vsq.Head(), st, 0)
					p.outstanding--
				})
				newDone++
			}
			if newDone > 0 {
				work += c.Router.IRQInject
				effects = append(effects, func() {
					if vq.irq != nil {
						vq.irq()
					}
				})
			}
		}
		if len(effects) == 0 {
			if p.outstanding == 0 {
				p.asleep = true
				p.wake.Wait()
				continue
			}
			// Commands are in flight: spin until a round has something
			// to look at.
			p.th.Spin(pr, work, look)
			continue
		}
		p.th.Exec(pr, work)
		for _, fn := range effects {
			fn()
		}
	}
}
