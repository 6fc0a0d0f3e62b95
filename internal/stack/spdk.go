package stack

import (
	"fmt"

	"nvmetro/internal/device"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// SPDK is the kernel-bypass baseline: a vhost-user target process whose
// reactor threads spin on the VMs' virtqueues and drive the NVMe device
// with an exclusive userspace polled-mode driver. Latency matches the other
// polling solutions; CPU is the highest of all because reactors never
// sleep, as the paper measures in Fig. 11.
type SPDK struct {
	h        *Host
	sessions []*spdkSession
	started  bool
	spin     sim.Duration
}

// NewSPDK creates the solution.
func NewSPDK(h *Host) *SPDK { return &SPDK{h: h, spin: 500 * sim.Nanosecond} }

type spdkSession struct {
	part   device.Partition
	queues []*virtio.Queue
	// Per-queue exclusive userspace NVMe queue pair + tag tracking.
	qps       []*nvme.QueuePair
	mem       *mappedMem
	inflight  []map[uint16]spdkTag
	freeCID   [][]uint16
	listPages [][]uint64 // one preallocated PRP list page per (queue, CID)
	pages     []uint64   // the data pages of the command being built
	prpEntry  [8]byte    // BuildPRP's list-entry scratch
}

type spdkTag struct {
	req virtio.DeviceReq
	vq  *virtio.Queue
}

// Kick is never taken: reactors poll, so the driver's kicks are suppressed.
func (s *SPDK) Kick(vq *virtio.Queue) (sim.Duration, func()) { return 0, nil }

// Provision implements Solution.
func (s *SPDK) Provision(v *vm.VM, part device.Partition) vm.Disk {
	sess := &spdkSession{part: part}
	// vhost-user maps the guest's memory into the SPDK process; PRP list
	// pages live in SPDK's own hugepage arena above the mapping.
	sess.mem = newMappedMem(v.Mem, 64<<20)
	s.sessions = append(s.sessions, sess)
	disk := virtio.NewBlkDisk(v, s, part.Info(), 256, s.h.Params.Driver)
	sess.queues = disk.Queues()
	for _, q := range sess.queues {
		q.Ring.SuppressKick = true
		qp := part.Dev.CreateQueuePair(256, sess.mem)
		sess.qps = append(sess.qps, qp)
		sess.inflight = append(sess.inflight, make(map[uint16]spdkTag))
		free := make([]uint16, 0, 255)
		lists := make([]uint64, 255)
		for i := uint16(0); i < 255; i++ {
			free = append(free, i)
			lists[i] = sess.mem.allocListPage()
		}
		sess.freeCID = append(sess.freeCID, free)
		sess.listPages = append(sess.listPages, lists)
	}
	if !s.started {
		s.started = true
		for i := 0; i < s.h.Params.SPDKReactors; i++ {
			th := s.h.hostThread("spdk")
			idx := i
			s.h.Env.Go(fmt.Sprintf("spdk-reactor%d", i), func(p *sim.Proc) { s.reactor(p, th, idx) })
		}
	}
	return disk
}

// reactor is a permanently-spinning SPDK event loop serving the sessions
// assigned to it round-robin.
func (s *SPDK) reactor(p *sim.Proc, th *sim.Thread, idx int) {
	par := s.h.Params
	// look is the pass below reduced to looking, for the rounds Spin runs
	// without this process: a completion on, or a chain it has a CID for
	// available in, any queue assigned to this reactor.
	look := func(int) sim.Time {
		flat := 0
		for _, sess := range s.sessions {
			for qi, vq := range sess.queues {
				flat++
				if (flat-1)%par.SPDKReactors != idx {
					continue
				}
				if sess.qps[qi].CQ.Peek() || len(sess.freeCID[qi]) > 0 && vq.Ring.AvailPending() {
					return 0
				}
			}
		}
		return sim.Never
	}
	for {
		did := false
		flat := 0
		for _, sess := range s.sessions {
			for qi, vq := range sess.queues {
				flat++
				if (flat-1)%par.SPDKReactors != idx {
					continue
				}
				// Completions from the polled userspace NVMe driver.
				var e nvme.Completion
				for sess.qps[qi].CQ.Pop(&e) {
					tag, ok := sess.inflight[qi][e.CID()]
					if !ok {
						continue
					}
					delete(sess.inflight[qi], e.CID())
					sess.freeCID[qi] = append(sess.freeCID[qi], e.CID())
					th.Exec(p, par.SPDKParse)
					s.complete(p, th, sess, tag.vq, tag.req, e.Status().OK())
					did = true
				}
				// New guest submissions.
				for len(sess.freeCID[qi]) > 0 {
					r, ok := vq.PopRequest()
					if !ok {
						break
					}
					did = true
					th.Exec(p, par.SPDKParse+par.SPDKNVMe)
					if !s.submit(sess, qi, vq, r) {
						s.complete(p, th, sess, vq, r, false)
					}
				}
			}
		}
		if !did {
			// Reactors never sleep: this is SPDK's defining CPU cost.
			th.Spin(p, s.spin, look)
		}
	}
}

// complete returns a finished request to the guest and injects the interrupt.
func (s *SPDK) complete(p *sim.Proc, th *sim.Thread, sess *spdkSession, vq *virtio.Queue, r virtio.DeviceReq, ok bool) {
	status := byte(0)
	if !ok {
		status = 1
	}
	r.Complete(vq, status)
	th.Exec(p, s.h.Params.SPDKInject)
	vq.Interrupt()
}

// submit translates a virtio-blk request into an NVMe command on the
// exclusive userspace queue, zero-copy: the PRP entries point straight at
// the guest's data pages through the vhost-user mapping. It reports false,
// with nothing submitted, for a request reaching outside the partition: the
// sectors are the guest's.
func (s *SPDK) submit(sess *spdkSession, qi int, vq *virtio.Queue, r virtio.DeviceReq) bool {
	t, sector := r.BlkHeader(vq)
	nsect := uint32(r.DataLen() / 512)
	if t == virtio.BlkTDiscard {
		sector, nsect = r.DiscardSegment(vq)
	}
	var lba uint64
	var blocks uint32
	if t != virtio.BlkTFlush {
		var ok bool
		if lba, blocks, ok = sess.part.TranslateSectors(sector, nsect); !ok {
			return false
		}
	}
	cid := sess.freeCID[qi][len(sess.freeCID[qi])-1]
	sess.freeCID[qi] = sess.freeCID[qi][:len(sess.freeCID[qi])-1]

	var cmd nvme.Command
	switch t {
	case virtio.BlkTFlush:
		cmd = nvme.NewFlush(cid, sess.part.NSID)
	case virtio.BlkTDiscard:
		cmd.SetOpcode(nvme.OpDSM)
		cmd.SetCID(cid)
		cmd.SetNSID(sess.part.NSID)
		cmd.SetSLBA(lba)
		cmd.SetNLB(uint16(blocks - 1))
	case virtio.BlkTIn, virtio.BlkTOut:
		op := nvme.OpRead
		if t == virtio.BlkTOut {
			op = nvme.OpWrite
		}
		sess.pages = sess.pages[:0]
		for _, d := range r.Data {
			sess.pages = append(sess.pages, d.Addr)
		}
		listPage := sess.listPages[qi][cid]
		prp1, prp2, err := nvme.BuildPRP(sess.mem, sess.pages, func() uint64 { return listPage }, &sess.prpEntry)
		if err != nil {
			panic(err)
		}
		cmd = nvme.NewRW(op, cid, sess.part.NSID, lba, blocks, prp1, prp2)
	}
	sess.inflight[qi][cid] = spdkTag{req: r, vq: vq}
	if !sess.qps[qi].SQ.Push(&cmd) {
		panic("stack: spdk SQ full with free CIDs available")
	}
	sess.part.Dev.Ring(sess.qps[qi].SQ.ID)
	return true
}

// mappedMem is the SPDK process's address space: the VM's memory mapped at
// offset 0 (vhost-user), with SPDK's own arena above it for PRP lists.
type mappedMem struct {
	guest *guestmem.Memory
	local *guestmem.Memory
	split uint64
	lists []uint64
}

func newMappedMem(guest *guestmem.Memory, localSize uint64) *mappedMem {
	return &mappedMem{guest: guest, local: guestmem.New(localSize), split: guest.Size()}
}

// ReadAt implements nvme.Memory.
func (m *mappedMem) ReadAt(p []byte, addr uint64) error {
	if addr >= m.split {
		return m.local.ReadAt(p, addr-m.split)
	}
	return m.guest.ReadAt(p, addr)
}

// WriteAt implements nvme.Memory.
func (m *mappedMem) WriteAt(p []byte, addr uint64) error {
	if addr >= m.split {
		return m.local.WriteAt(p, addr-m.split)
	}
	return m.guest.WriteAt(p, addr)
}

// allocListPage returns a recycled or fresh PRP list page in local space.
func (m *mappedMem) allocListPage() uint64 {
	if n := len(m.lists); n > 0 {
		pg := m.lists[n-1]
		m.lists = m.lists[:n-1]
		return pg
	}
	return m.local.MustAllocPages(1) + m.split
}
