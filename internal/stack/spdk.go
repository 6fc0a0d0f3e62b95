package stack

import (
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
	h       *Host
	queues  []spdkQueue // every session's queues, in provisioning order
	started bool
	spin    sim.Duration
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

// spdkQueue is queue qi of a session.
type spdkQueue struct {
	sess *spdkSession
	qi   int
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
	disk := virtio.NewBlkDisk(v, s, part.Info(), 256, s.h.Params.Driver)
	sess.queues = disk.Queues()
	for qi, q := range sess.queues {
		s.queues = append(s.queues, spdkQueue{sess, qi})
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
			r := &spdkReactor{s: s, th: s.h.hostThread("spdk"), idx: i}
			r.stepPass, r.stepParsed, r.stepChain, r.stepInjected = r.pass, r.parsed, r.chain, r.injected
			r.stepLook = r.look
			s.h.Env.After(0, r.stepPass)
		}
	}
	return disk
}

// spdkReactor is a permanently-spinning SPDK event loop serving every
// SPDKReactors-th queue. The loop runs as continuations: each step resumes
// the pass at its cursor.
type spdkReactor struct {
	s   *SPDK
	th  *sim.Thread
	idx int

	// The pass's cursor: the queues it walks (those provisioned when it
	// began), the one it is at, whether that one's completions are drained,
	// and whether the pass found work.
	n, at       int
	chains, did bool

	// The request between its charge and its completion.
	req virtio.DeviceReq
	vq  *virtio.Queue
	ok  bool

	// The loop's steps, bound once.
	stepPass, stepParsed, stepChain, stepInjected func()
	stepLook                                      func(int) sim.Time
}

// pass starts a pass over the reactor's queues.
func (r *spdkReactor) pass() {
	r.n, r.at, r.chains, r.did = len(r.s.queues), r.idx, false, false
	r.resume()
}

// resume walks the pass on from its cursor: per queue, the completions the
// polled userspace NVMe driver posted, then new guest submissions, each
// charged before it lands. A pass that found nothing spins: reactors never
// sleep, which is SPDK's defining CPU cost.
func (r *spdkReactor) resume() {
	par := r.s.h.Params
	for ; r.at < r.n; r.at, r.chains = r.at+par.SPDKReactors, false {
		sess, qi := r.s.queues[r.at].sess, r.s.queues[r.at].qi
		if !r.chains {
			var e nvme.Completion
			for sess.qps[qi].CQ.Pop(&e) {
				tag, ok := sess.inflight[qi][e.CID()]
				if !ok {
					continue
				}
				delete(sess.inflight[qi], e.CID())
				sess.freeCID[qi] = append(sess.freeCID[qi], e.CID())
				r.req, r.vq, r.ok = tag.req, tag.vq, e.Status().OK()
				r.th.ExecFunc(par.SPDKParse, r.stepParsed)
				return
			}
			r.chains = true
		}
		if len(sess.freeCID[qi]) > 0 {
			if req, ok := sess.queues[qi].PopRequest(); ok {
				r.did = true
				r.req, r.vq = req, sess.queues[qi]
				r.th.ExecFunc(par.SPDKParse+par.SPDKNVMe, r.stepChain)
				return
			}
		}
	}
	if !r.did {
		r.th.SpinFunc(r.s.spin, r.stepLook, r.stepPass)
		return
	}
	r.pass()
}

// look is the pass reduced to looking, for the rounds SpinFunc runs: a
// completion on, or a chain it has a CID for available in, any of the
// reactor's queues.
func (r *spdkReactor) look(int) sim.Time {
	for at := r.idx; at < len(r.s.queues); at += r.s.h.Params.SPDKReactors {
		sess, qi := r.s.queues[at].sess, r.s.queues[at].qi
		if sess.qps[qi].CQ.Peek() || len(sess.freeCID[qi]) > 0 && sess.queues[qi].Ring.AvailPending() {
			return 0
		}
	}
	return sim.Never
}

// parsed completes the request whose device completion has been parsed.
func (r *spdkReactor) parsed() {
	r.did = true
	r.complete(r.ok)
}

// chain submits the guest chain that has been parsed, or fails it.
func (r *spdkReactor) chain() {
	if q := r.s.queues[r.at]; !r.s.submit(q.sess, q.qi, r.vq, r.req) {
		r.complete(false)
		return
	}
	r.req, r.vq = virtio.DeviceReq{}, nil
	r.resume()
}

// complete returns a finished request to the guest and injects the
// interrupt.
func (r *spdkReactor) complete(ok bool) {
	status := byte(0)
	if !ok {
		status = 1
	}
	r.req.Complete(r.vq, status)
	r.th.ExecFunc(r.s.h.Params.SPDKInject, r.stepInjected)
}

func (r *spdkReactor) injected() {
	r.vq.Interrupt()
	r.req, r.vq = virtio.DeviceReq{}, nil
	r.resume()
}

// submit translates a virtio-blk request into an NVMe command on the
// exclusive userspace queue, zero-copy: the PRP entries point straight at
// the guest's data pages through the vhost-user mapping. It reports false,
// with nothing submitted, for a request reaching outside the partition (the
// sectors are the guest's) and for a data chain no PRP list describes.
func (s *SPDK) submit(sess *spdkSession, qi int, vq *virtio.Queue, r virtio.DeviceReq) bool {
	t, sector := r.BlkHeader(vq)
	nsect := uint32(r.DataLen() / 512)
	if t == virtio.BlkTDiscard {
		sector, nsect = r.DiscardSegment(vq)
	}
	if (t == virtio.BlkTIn || t == virtio.BlkTOut) && !sess.dataPages(r.Data) {
		return false
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

// dataPages lists in sess.pages the pages a chain's data descriptors cover,
// each descriptor split at page boundaries. It reports false for a chain no
// PRP list can describe: a descriptor after the first that does not start on
// a page, or one before the last that does not end on one.
func (sess *spdkSession) dataPages(data []virtio.Desc) bool {
	sess.pages = sess.pages[:0]
	for k, d := range data {
		end := d.Addr + uint64(d.Len)
		if k > 0 && d.Addr%nvme.PageSize != 0 || k < len(data)-1 && end%nvme.PageSize != 0 {
			return false
		}
		for a := d.Addr; a < end; a = a&^(nvme.PageSize-1) + nvme.PageSize {
			sess.pages = append(sess.pages, a)
		}
	}
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
