package device

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// refDevice is the process-based command service the callback tier
// replaced, kept as the oracle for TestLockstepWithProcessReference: one
// dev-sq process per queue parked on a doorbell cond, one dev-cmd process
// per command blocking on the device's resources. It shares the Device's
// resources, stores, stats, jitter source and range check, so the two
// paths differ only in how a command waits.
type refDevice struct {
	*Device
	queues map[uint16]*refQueue
}

type refQueue struct {
	qp   *nvme.QueuePair
	mem  nvme.Memory
	cond *sim.Cond // doorbell signal

	// Handlers start in spawn order, so a FIFO pairs the i-th spawned
	// handler with the i-th popped command.
	run      func(*sim.Proc)
	pending  []nvme.Command
	pendHead int
}

func newRefDevice(d *Device) *refDevice {
	return &refDevice{Device: d, queues: make(map[uint16]*refQueue)}
}

func (d *refDevice) CreateQueuePair(depth uint32, mem nvme.Memory) *nvme.QueuePair {
	d.nextQ++
	id := d.nextQ
	qp := nvme.NewQueuePair(id, depth)
	st := &refQueue{qp: qp, mem: mem, cond: sim.NewCond(d.env)}
	st.run = func(hp *sim.Proc) { d.handle(hp, st) }
	d.queues[id] = st
	d.env.Go(fmt.Sprintf("dev-sq%d", id), func(p *sim.Proc) { d.serveQueue(p, st) })
	return qp
}

func (d *refDevice) Ring(qid uint16) {
	if st := d.queues[qid]; st != nil {
		st.cond.Signal(nil)
	}
}

func (d *refDevice) serveQueue(p *sim.Proc, st *refQueue) {
	var cmd nvme.Command
	for {
		for st.qp.SQ.Pop(&cmd) {
			st.pending = append(st.pending, cmd)
			d.env.Go("dev-cmd", st.run)
		}
		st.cond.Wait()
	}
}

func (d *refDevice) handle(p *sim.Proc, st *refQueue) {
	cmd := st.pending[st.pendHead]
	st.pendHead++
	if st.pendHead == len(st.pending) {
		st.pending = st.pending[:0]
		st.pendHead = 0
	}
	status := nvme.SCSuccess
	result := cmd.CDW(3)

	d.ctrl.Acquire()
	p.Sleep(d.p.CtrlOver)
	d.ctrl.Release()

	switch cmd.Opcode() {
	case nvme.OpRead:
		status = d.doRead(p, st, &cmd)
	case nvme.OpWrite:
		status = d.doWrite(p, st, &cmd, false)
	case nvme.OpWriteZeroes:
		status = d.doWrite(p, st, &cmd, true)
	case nvme.OpCompare:
		status = d.doCompare(p, st, &cmd)
	case nvme.OpFlush:
		d.Others++
		p.Sleep(d.jittered(d.p.FlushLat))
	case nvme.OpDSM:
		if _, status = d.checkRange(&cmd); status.OK() {
			d.Others++
			p.Sleep(d.jittered(5 * sim.Microsecond))
			d.ns[cmd.NSID()].Store.TrimBlocks(cmd.SLBA(), cmd.Blocks())
		}
	default:
		if cmd.Opcode() >= nvme.OpVendorStart {
			d.Others++
			p.Sleep(d.jittered(10 * sim.Microsecond))
		} else {
			status = nvme.SCInvalidOpcode
		}
	}

	if fd := d.inj.Decide(classOf(cmd.Opcode())); fd.Faulty() {
		if !fd.Status.OK() && status.OK() {
			status = fd.Status
			d.MediaErrors++
		}
		if fd.Drop {
			d.DroppedComps++
			return
		}
		if fd.Delay > 0 {
			d.StuckComps++
			p.Sleep(fd.Delay)
		}
	}

	for !st.qp.CQ.Post(cmd.CID(), st.qp.SQ.ID, st.qp.SQ.Head(), status, result) {
		p.Sleep(5 * sim.Microsecond)
	}
}

func (d *refDevice) transfer(p *sim.Proc, bus *sim.Resource, nbytes uint32, bw float64) {
	t := d.p.BusOver + sim.Duration(float64(nbytes)/bw*1e9)
	bus.Acquire()
	p.Sleep(t)
	bus.Release()
}

func (d *refDevice) doRead(p *sim.Proc, st *refQueue, cmd *nvme.Command) nvme.Status {
	ns, status := d.checkRange(cmd)
	if !status.OK() {
		return status
	}
	nbytes := cmd.Blocks() << d.p.LBAShift
	segs, err := nvme.WalkPRP(st.mem, cmd.PRP1(), cmd.PRP2(), nbytes)
	if err != nil {
		return nvme.SCDataXferError
	}
	d.units.Acquire()
	p.Sleep(d.jittered(d.p.ReadBase))
	d.units.Release()
	d.transfer(p, d.rbus, nbytes, d.p.ReadBW)

	buf := scratchBuf(&d.scratch, nbytes)
	ns.Store.ReadBlocks(cmd.SLBA(), buf)
	if err := nvme.WriteSegments(st.mem, segs, buf); err != nil {
		return nvme.SCDataXferError
	}
	d.Reads++
	d.BytesRead += uint64(nbytes)
	return nvme.SCSuccess
}

func (d *refDevice) doWrite(p *sim.Proc, st *refQueue, cmd *nvme.Command, zeroes bool) nvme.Status {
	ns, status := d.checkRange(cmd)
	if !status.OK() {
		return status
	}
	nbytes := cmd.Blocks() << d.p.LBAShift
	buf := make([]byte, nbytes)
	if !zeroes {
		segs, err := nvme.WalkPRP(st.mem, cmd.PRP1(), cmd.PRP2(), nbytes)
		if err != nil {
			return nvme.SCDataXferError
		}
		if err := nvme.ReadSegments(st.mem, segs, buf); err != nil {
			return nvme.SCDataXferError
		}
		d.transfer(p, d.wbus, nbytes, d.p.WriteBW)
	}
	d.units.Acquire()
	p.Sleep(d.jittered(d.p.WriteBase))
	d.units.Release()

	ns.Store.WriteBlocks(cmd.SLBA(), buf)
	d.Writes++
	d.BytesWrit += uint64(nbytes)
	return nvme.SCSuccess
}

func (d *refDevice) doCompare(p *sim.Proc, st *refQueue, cmd *nvme.Command) nvme.Status {
	ns, status := d.checkRange(cmd)
	if !status.OK() {
		return status
	}
	nbytes := cmd.Blocks() << d.p.LBAShift
	segs, err := nvme.WalkPRP(st.mem, cmd.PRP1(), cmd.PRP2(), nbytes)
	if err != nil {
		return nvme.SCDataXferError
	}
	d.units.Acquire()
	p.Sleep(d.jittered(d.p.ReadBase))
	d.units.Release()
	d.transfer(p, d.rbus, nbytes, d.p.ReadBW)

	want := scratchBuf(&d.scratch, nbytes)
	if err := nvme.ReadSegments(st.mem, segs, want); err != nil {
		return nvme.SCDataXferError
	}
	have := scratchBuf(&d.scratch2, nbytes)
	ns.Store.ReadBlocks(cmd.SLBA(), have)
	for i := range want {
		if want[i] != have[i] {
			return nvme.SCCompareFailure
		}
	}
	d.Others++
	return nvme.SCSuccess
}
