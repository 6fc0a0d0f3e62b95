package virtio

import (
	"encoding/binary"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/scsi"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// virtio-blk request types.
const (
	BlkTIn      uint32 = 0 // read
	BlkTOut     uint32 = 1 // write
	BlkTFlush   uint32 = 4
	BlkTDiscard uint32 = 11
)

// Queue couples a vring with its index and guest memory, for backend wiring.
type Queue struct {
	Index int
	Ring  *Vring
	Mem   *guestmem.Memory

	// GuestErrors counts chains the device side refused as malformed (see
	// PopRequest).
	GuestErrors uint64

	irq func() // the driver's completion interrupt, set at init
}

// Interrupt raises the queue's completion interrupt in the guest: the
// backend calls it after putting used entries on the ring.
func (q *Queue) Interrupt() { q.irq() }

// Transport is how the driver notifies its backend (kick); the completion
// interrupt is the queue's own (Queue.Interrupt). Backends model their own
// costs — a QEMU kick is a vmexit on the vCPU, a vhost kick is an eventfd
// write, and a polled vhost-user backend suppresses kicks entirely.
type Transport interface {
	// Kick is the driver's notification that q has new chains. It returns
	// how long the notification keeps the vCPU out of guest mode and what
	// the backend does once it has it; a nil notify means the kick is not
	// taken and costs nothing. The driver charges trap to the vCPU
	// (Thread.ExecFunc) and then calls notify.
	Kick(q *Queue) (trap sim.Duration, notify func())
}

// slot is preallocated per-request metadata space in guest memory.
type slot struct {
	hdrAddr    uint64 // header (out)
	statusAddr uint64 // status byte (in)
	req        *vm.Req
}

// queueState is the driver-side state of one virtqueue.
type queueState struct {
	q       *Queue
	vcpu    *sim.Thread
	slots   []slot
	free    []int
	byHead  map[uint16]int
	slotCnd *sim.Cond
	irqCnd  *sim.Cond

	// The interrupt handler is a continuation on the vCPU (Cond.WaitFunc,
	// Thread.ExecFunc), not a process; head is the used element it is
	// completing.
	d                      *driverBase
	head                   uint16
	entry, drain, complete func() // its steps, bound once
}

// driverBase is shared machinery between the blk and scsi drivers.
type driverBase struct {
	v      *vm.VM
	tr     Transport
	costs  vm.DriverCosts
	qs     map[*sim.Thread]*queueState
	order  []*queueState
	info   nvme.NamespaceInfo
	encode func(s *slot, r *vm.Req, bufs []buffer) []buffer
	status func(st *queueState, s *slot) nvme.Status
}

func (d *driverBase) init(name string, v *vm.VM, tr Transport, queueSize uint16, depth int, costs vm.DriverCosts) {
	d.v = v
	d.tr = tr
	d.costs = costs
	d.qs = make(map[*sim.Thread]*queueState)
	for i := 0; i < v.NumVCPUs(); i++ {
		vcpu := v.VCPU(i)
		st := &queueState{
			q:       &Queue{Index: i, Ring: newVring(v.Mem, queueSize), Mem: v.Mem},
			vcpu:    vcpu,
			byHead:  make(map[uint16]int),
			slotCnd: sim.NewCond(v.Env),
			irqCnd:  sim.NewCond(v.Env),
			d:       d,
		}
		st.entry, st.drain, st.complete = st.irqEntry, st.irqDrain, st.irqComplete
		for j := 0; j < depth; j++ {
			page := v.Mem.MustAllocPages(1)
			st.slots = append(st.slots, slot{hdrAddr: page, statusAddr: page + 256})
			st.free = append(st.free, j)
		}
		st.q.irq = func() { st.irqCnd.Signal(nil) }
		d.qs[vcpu] = st
		d.order = append(d.order, st)
		// The handler starts waiting one event from now.
		v.Env.After(0, st.irqWait)
	}
}

// Queues exposes the virtqueues for backend attachment.
func (d *driverBase) Queues() []*Queue {
	out := make([]*Queue, len(d.order))
	for i, st := range d.order {
		out[i] = st.q
	}
	return out
}

// BlockSize implements vm.Disk.
func (d *driverBase) BlockSize() uint32 { return d.info.BlockSize() }

// Blocks implements vm.Disk.
func (d *driverBase) Blocks() uint64 { return d.info.Size }

// submission is one request's way through SubmitFunc, kept on the request
// (vm.Req.DriverState).
type submission struct {
	r      *vm.Req
	st     *queueState
	vcpu   *sim.Thread
	si     int      // the request's slot, once it has one
	bufs   []buffer // its descriptor chain, once encoded
	notify func()   // the transport's side of the kick
	then   func()

	takeSlot, addChain, kicked func() // bound once
}

// SubmitFunc implements vm.Disk: the submission cost is an ExecFunc on vcpu;
// the request then waits on the slot condition until a slot is free, encodes
// its descriptor chain, waits again until the ring has descriptors for it,
// publishes the chain and kicks the backend unless kicks are suppressed.
// Every wait looks again at each wake, as the blocking loops did.
func (d *driverBase) SubmitFunc(vcpu *sim.Thread, r *vm.Req, then func()) {
	st := d.qs[vcpu]
	if st == nil {
		st = d.order[0]
	}
	s, ok := r.DriverState.(*submission)
	if !ok {
		s = &submission{r: r}
		s.takeSlot, s.addChain, s.kicked = s.slot, s.chain, s.kick
		r.DriverState = s
	}
	s.st, s.vcpu, s.then = st, vcpu, then
	r.Submitted = d.v.Env.Now()
	vcpu.ExecFunc(d.costs.Submit, s.takeSlot)
}

func (s *submission) slot() {
	st := s.st
	if len(st.free) == 0 {
		st.slotCnd.WaitFunc(s.takeSlot)
		return
	}
	s.si = st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	sl := &st.slots[s.si]
	sl.req = s.r
	s.bufs = st.d.encode(sl, s.r, s.bufs[:0])
	s.chain()
}

func (s *submission) chain() {
	st := s.st
	head, ok := st.q.Ring.addChain(s.bufs)
	if !ok {
		st.slotCnd.WaitFunc(s.addChain)
		return
	}
	st.byHead[head] = s.si
	if !st.q.Ring.SuppressKick {
		if trap, notify := st.d.tr.Kick(st.q); notify != nil {
			s.notify = notify
			s.vcpu.ExecFunc(trap, s.kicked)
			return
		}
	}
	s.then()
}

func (s *submission) kick() {
	s.notify()
	s.then()
}

// The interrupt handler: interrupt -> entry cost on the owning vCPU -> pop
// used -> per-element cost -> bookkeeping -> pop ... -> wait. An interrupt
// raised while it runs finds no waiter; the drain loop finds that element by
// itself.

func (st *queueState) irqWait() { st.irqCnd.WaitFunc(st.entry) }

func (st *queueState) irqEntry() { st.vcpu.ExecFunc(st.d.v.Costs.GuestIRQ, st.drain) }

func (st *queueState) irqDrain() {
	head, ok := st.q.Ring.popUsed()
	if !ok {
		st.irqWait()
		return
	}
	st.head = head
	st.vcpu.ExecFunc(st.d.costs.Complete, st.complete)
}

func (st *queueState) irqComplete() {
	si, ok := st.byHead[st.head]
	if !ok {
		// A chain this driver never posted (a guest that writes its own
		// avail entries): the device returned it, nothing waits on it.
		st.irqDrain()
		return
	}
	delete(st.byHead, st.head)
	s := &st.slots[si]
	r := s.req
	s.req = nil
	status := st.d.status(st, s)
	st.free = append(st.free, si)
	st.slotCnd.Signal(nil)
	r.Complete(st.d.v.Env, status)
	st.irqDrain()
}

func readByte(mem *guestmem.Memory, addr uint64) byte {
	var b [1]byte
	mem.ReadAt(b[:], addr)
	return b[0]
}

// --- virtio-blk driver ----------------------------------------------------

// BlkDisk is the guest virtio-blk driver (one virtqueue per vCPU).
type BlkDisk struct {
	driverBase
}

// NewBlkDisk creates the driver over tr for a disk of the given geometry.
func NewBlkDisk(v *vm.VM, tr Transport, info nvme.NamespaceInfo, queueSize uint16, costs vm.DriverCosts) *BlkDisk {
	d := &BlkDisk{}
	d.info = info
	d.encode = d.encodeReq
	d.status = d.readStatus
	d.init("vblk", v, tr, queueSize, int(queueSize)/2, costs)
	return d
}

func (d *BlkDisk) encodeReq(s *slot, r *vm.Req, bufs []buffer) []buffer {
	var hdr [16]byte
	t := BlkTIn
	switch r.Op {
	case vm.OpWrite:
		t = BlkTOut
	case vm.OpFlush:
		t = BlkTFlush
	case vm.OpTrim:
		t = BlkTDiscard
	}
	binary.LittleEndian.PutUint32(hdr[0:4], t)
	sector := r.LBA * uint64(d.info.BlockSize()) / 512
	binary.LittleEndian.PutUint64(hdr[8:16], sector)
	d.v.Mem.WriteAt(hdr[:], s.hdrAddr)

	bufs = append(bufs, buffer{Addr: s.hdrAddr, Len: 16})
	switch r.Op {
	case vm.OpRead, vm.OpWrite:
		nbytes := r.Bytes(d.info.BlockSize())
		rem := nbytes
		for _, pg := range r.BufPages {
			l := uint32(guestmem.PageSize)
			if rem < l {
				l = rem
			}
			bufs = append(bufs, buffer{Addr: pg, Len: l, DevWrit: r.Op == vm.OpRead})
			rem -= l
			if rem == 0 {
				break
			}
		}
	case vm.OpTrim:
		// Discard segment {sector u64, num u32, flags u32} after the header.
		var seg [16]byte
		binary.LittleEndian.PutUint64(seg[0:8], sector)
		binary.LittleEndian.PutUint32(seg[8:12], r.Blocks*d.info.BlockSize()/512)
		d.v.Mem.WriteAt(seg[:], s.hdrAddr+16)
		bufs = append(bufs, buffer{Addr: s.hdrAddr + 16, Len: 16})
	}
	return append(bufs, buffer{Addr: s.statusAddr, Len: 1, DevWrit: true})
}

func (d *BlkDisk) readStatus(st *queueState, s *slot) nvme.Status {
	if readByte(d.v.Mem, s.statusAddr) == 0 {
		return nvme.SCSuccess
	}
	return nvme.SCInternal
}

// --- virtio-scsi driver ---------------------------------------------------

// scsiHdrSize is the simplified virtio-scsi request header: LUN+tag+attrs
// plus a 32-byte CDB area.
const scsiHdrSize = 64

// SCSIDisk is the guest virtio-scsi driver.
type SCSIDisk struct {
	driverBase
}

// NewSCSIDisk creates the driver.
func NewSCSIDisk(v *vm.VM, tr Transport, info nvme.NamespaceInfo, queueSize uint16, costs vm.DriverCosts) *SCSIDisk {
	d := &SCSIDisk{}
	d.info = info
	d.encode = d.encodeReq
	d.status = d.readStatus
	// CDB construction adds a little work per request versus virtio-blk.
	costs.Submit += 300 * sim.Nanosecond
	d.init("vscsi", v, tr, queueSize, int(queueSize)/2, costs)
	return d
}

func (d *SCSIDisk) encodeReq(s *slot, r *vm.Req, bufs []buffer) []buffer {
	var cdb scsi.CDB
	lba := r.LBA * uint64(d.info.BlockSize()) / 512
	blocks := r.Blocks * d.info.BlockSize() / 512
	switch r.Op {
	case vm.OpRead:
		cdb = scsi.Read16(lba, blocks)
	case vm.OpWrite:
		cdb = scsi.Write16(lba, blocks)
	case vm.OpFlush:
		cdb = scsi.SyncCache()
	case vm.OpTrim:
		cdb = scsi.Unmap(lba, blocks)
	}
	var hdr [scsiHdrSize]byte
	copy(hdr[32:], cdb)
	hdr[30] = uint8(len(cdb))
	d.v.Mem.WriteAt(hdr[:], s.hdrAddr)

	bufs = append(bufs, buffer{Addr: s.hdrAddr, Len: scsiHdrSize})
	if r.Op == vm.OpRead || r.Op == vm.OpWrite {
		nbytes := r.Bytes(d.info.BlockSize())
		rem := nbytes
		for _, pg := range r.BufPages {
			l := uint32(guestmem.PageSize)
			if rem < l {
				l = rem
			}
			bufs = append(bufs, buffer{Addr: pg, Len: l, DevWrit: r.Op == vm.OpRead})
			rem -= l
			if rem == 0 {
				break
			}
		}
	}
	return append(bufs, buffer{Addr: s.statusAddr, Len: 1, DevWrit: true})
}

func (d *SCSIDisk) readStatus(st *queueState, s *slot) nvme.Status {
	if readByte(d.v.Mem, s.statusAddr) == scsi.StatusGood {
		return nvme.SCSuccess
	}
	return nvme.SCInternal
}

// ParseSCSICDB extracts the CDB from a request header (backend side).
func ParseSCSICDB(mem *guestmem.Memory, hdrAddr uint64) (scsi.Cmd, error) {
	var hdr [scsiHdrSize]byte
	mem.ReadAt(hdr[:], hdrAddr)
	n := int(hdr[30])
	if n == 0 || n > 32 {
		return scsi.Cmd{}, scsi.ErrBadCDB
	}
	return scsi.Decode(scsi.CDB(hdr[32 : 32+n]))
}
