package stack

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/dm"
	"nvmetro/internal/nvme"
	"nvmetro/internal/scsi"
	"nvmetro/internal/sim"
	"nvmetro/internal/virtio"
	"nvmetro/internal/vm"
)

// VhostSCSI is the in-kernel paravirtual baseline: a virtio-scsi guest
// driver served by a kernel vhost worker thread that decodes CDBs and
// submits bios to the host block layer. Backend may be the raw device or a
// device-mapper stack (dm-crypt, dm-mirror), giving the paper's encrypted
// and mirrored baselines.
type VhostSCSI struct {
	h *Host
	// Backend builds the block device a VM's LUN maps to; nil = raw device
	// partition.
	Backend func(part device.Partition) blockdev.BlockDevice
}

// NewVhostSCSI creates the plain configuration.
func NewVhostSCSI(h *Host) *VhostSCSI { return &VhostSCSI{h: h} }

// NewVhostDMCrypt stacks dm-crypt under vhost-scsi (the paper's encryption
// baseline).
func NewVhostDMCrypt(h *Host, key []byte) *VhostSCSI {
	return &VhostSCSI{h: h, Backend: func(part device.Partition) blockdev.BlockDevice {
		lower := blockdev.NewNVMeBlockDev(h.Env, part, h.CPU, h.guestCores, h.Params.Block)
		crypt, err := dm.NewCrypt(h.Env, lower, key, h.Params.Crypt, h.CPU)
		if err != nil {
			panic(err)
		}
		return crypt
	}}
}

// NewVhostDMMirror stacks dm-mirror under vhost-scsi (the replication
// baseline); secondary provides the remote leg.
func NewVhostDMMirror(h *Host, secondary func(part device.Partition) blockdev.BlockDevice) *VhostSCSI {
	return &VhostSCSI{h: h, Backend: func(part device.Partition) blockdev.BlockDevice {
		lower := blockdev.NewNVMeBlockDev(h.Env, part, h.CPU, h.guestCores, h.Params.Block)
		return &dm.Mirror{Primary: lower, Secondary: secondary(part)}
	}}
}

// Provision implements Solution.
func (s *VhostSCSI) Provision(v *vm.VM, part device.Partition) vm.Disk {
	var bdev blockdev.BlockDevice
	if s.Backend != nil {
		bdev = s.Backend(part)
	} else {
		bdev = blockdev.NewNVMeBlockDev(s.h.Env, part, s.h.CPU, s.h.guestCores, s.h.Params.Block)
	}
	w := &vhostVM{
		h: s.h, bdev: bdev,
		wake: sim.NewCond(s.h.Env),
	}
	w.wakeFn = w.hint
	disk := virtio.NewSCSIDisk(v, w, part.Info(), 256, s.h.Params.Driver)
	w.queues = disk.Queues()
	for i := 0; i < s.h.Params.VhostWorkers; i++ {
		k := &vhostWorker{w: w, th: s.h.hostThread("vhost")}
		k.stepTurn, k.stepDelivered, k.stepInjected = k.turn, k.delivered, k.injected
		k.stepParsed, k.stepService, k.stepWoken, k.stepAwake = k.parsed, k.service, k.woken, k.awake
		s.h.Env.After(0, k.stepTurn)
	}
	return disk
}

type vhostVM struct {
	h      *Host
	bdev   blockdev.BlockDevice
	queues []*virtio.Queue
	wake   *sim.Cond
	wakeFn func() // hint, bound once: what a kick does once it has trapped
	asleep int
	busy   int

	completions []vhostDone
}

type vhostDone struct {
	req    virtio.DeviceReq
	vq     *virtio.Queue
	status byte
	read   bool
	buf    []byte
}

// Kick implements virtio.Transport: an ioeventfd exit, cheaper than a full
// trap-and-emulate but still a guest-mode exit, then a wake for a sleeping
// worker.
func (w *vhostVM) Kick(vq *virtio.Queue) (sim.Duration, func()) {
	return w.h.Params.VhostKick, w.wakeFn
}

func (w *vhostVM) hint() {
	if w.asleep > 0 {
		w.wake.Signal(nil)
	}
}

// vhostWorker is one kernel vhost worker thread. Its loop runs as
// continuations: each step resumes the turn at its cursor.
type vhostWorker struct {
	w  *vhostVM
	th *sim.Thread

	// The turn's cursor: the queue it is popping, whether it found work, and
	// the finished command or new request between its charges.
	vi   int
	did  bool
	done vhostDone
	req  virtio.DeviceReq

	// The loop's steps, bound once.
	stepTurn, stepDelivered, stepInjected, stepParsed, stepService, stepWoken, stepAwake func()
}

// turn is one pass of the worker: deliver finished commands back to the
// guest, then service new requests.
func (k *vhostWorker) turn() {
	k.did = false
	k.deliver()
}

// deliver charges the next finished command's completion, or moves on to
// the queues.
func (k *vhostWorker) deliver() {
	w := k.w
	if len(w.completions) == 0 {
		k.vi = 0
		k.service()
		return
	}
	k.done = w.completions[0]
	w.completions = w.completions[1:]
	k.th.ExecFunc(w.h.Params.VhostComplete, k.stepDelivered)
}

func (k *vhostWorker) delivered() {
	d := k.done
	if d.read && d.status == scsi.StatusGood {
		d.req.WriteData(d.vq, d.buf)
	}
	d.req.Complete(d.vq, d.status)
	k.th.ExecFunc(k.w.h.Params.VhostInject, k.stepInjected)
}

func (k *vhostWorker) injected() {
	k.done.vq.Interrupt()
	k.done = vhostDone{}
	k.did = true
	k.deliver()
}

// service charges the parse of the next request the queues at the cursor
// hold. With none left, a turn that found work starts the next one; one that
// found nothing blocks until a kick or a bio completion (finish hints)
// arrives, paying the full scheduler wake-up like a real kthread.
func (k *vhostWorker) service() {
	w := k.w
	for ; k.vi < len(w.queues); k.vi++ {
		if r, ok := w.queues[k.vi].PopRequest(); ok {
			k.did = true
			k.req = r
			k.th.ExecFunc(w.h.Params.VhostParse, k.stepParsed)
			return
		}
	}
	if k.did {
		k.turn()
		return
	}
	w.asleep++
	w.wake.WaitFunc(k.stepWoken)
}

func (k *vhostWorker) parsed() {
	w, vq, r := k.w, k.w.queues[k.vi], k.req
	k.req = virtio.DeviceReq{}
	cmd, err := virtio.ParseSCSICDB(vq.Mem, r.HdrAddr)
	if err != nil {
		w.finish(vhostDone{req: r, vq: vq, status: scsi.StatusCheckCondition})
		k.service()
		return
	}
	w.dispatch(k.th, vq, r, cmd, k.stepService)
}

func (k *vhostWorker) woken() { k.w.h.afterWake(k.stepAwake) }

func (k *vhostWorker) awake() {
	k.w.asleep--
	k.turn()
}

func (w *vhostVM) finish(d vhostDone) {
	w.completions = append(w.completions, d)
	w.hint()
}

// dispatch submits cmd's bio from th, and runs then once the submitter may
// go on.
func (w *vhostVM) dispatch(th *sim.Thread, vq *virtio.Queue, r virtio.DeviceReq, cmd scsi.Cmd, then func()) {
	toStatus := func(st nvme.Status) byte {
		if st.OK() {
			return scsi.StatusGood
		}
		return scsi.StatusCheckCondition
	}
	switch {
	case cmd.IsRead():
		buf := make([]byte, r.DataLen())
		bio := &blockdev.Bio{Op: blockdev.BioRead, Sector: cmd.LBA, Data: buf}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st), read: true, buf: buf})
		}
		w.bdev.SubmitFunc(th, bio, then)
	case cmd.IsWrite():
		buf := make([]byte, r.DataLen())
		r.ReadData(vq, buf)
		bio := &blockdev.Bio{Op: blockdev.BioWrite, Sector: cmd.LBA, Data: buf}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitFunc(th, bio, then)
	case cmd.Op == scsi.OpSyncCache10:
		bio := &blockdev.Bio{Op: blockdev.BioFlush}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitFunc(th, bio, then)
	case cmd.Op == scsi.OpUnmap:
		bio := &blockdev.Bio{Op: blockdev.BioDiscard, Sector: cmd.LBA, NSect: cmd.Blocks}
		bio.OnDone = func(st nvme.Status) {
			w.finish(vhostDone{req: r, vq: vq, status: toStatus(st)})
		}
		w.bdev.SubmitFunc(th, bio, then)
	default:
		w.finish(vhostDone{req: r, vq: vq, status: scsi.StatusGood})
		then()
	}
}
