package vm

import (
	"fmt"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// newRefNVMeDisk is NewNVMeDisk with the completion handlers the callback
// tier replaced, kept as the oracle for TestIRQLockstepWithProcessReference:
// one nvme-irq process per queue pair parked on irqCond, blocking in
// Thread.Exec on the owning vCPU. It shares the queue-pair state and the
// submission path with the driver, so the two differ only in how the handler
// waits.
func newRefNVMeDisk(v *VM, port Port, depth uint32, costs DriverCosts) *NVMeDisk {
	d := &NVMeDisk{vm: v, port: port, costs: costs, info: port.Namespace(), qps: make(map[*sim.Thread]*qpState)}
	for i := 0; i < v.NumVCPUs(); i++ {
		st := d.newQP(v.VCPU(i), depth)
		port.SetIRQ(st.qp.SQ.ID, func() { st.irqCond.Signal(nil) })
		name := fmt.Sprintf("vm%d/nvme-irq-q%d", v.ID, st.qp.SQ.ID)
		v.Env.Go(name, func(p *sim.Proc) { d.completionLoop(p, st) })
	}
	return d
}

func (d *NVMeDisk) completionLoop(p *sim.Proc, st *qpState) {
	var e nvme.Completion
	for {
		st.irqCond.Wait()
		// Interrupt handler entry on the owning vCPU.
		st.vcpu.Exec(p, d.vm.Costs.GuestIRQ)
		for st.qp.CQ.Pop(&e) {
			st.vcpu.Exec(p, d.costs.Complete)
			cid := e.CID()
			r := st.reqs[cid]
			if r == nil {
				panic(fmt.Sprintf("vm: completion for idle cid %d", cid))
			}
			st.reqs[cid] = nil
			st.free = append(st.free, cid)
			st.slotCond.Signal(nil)
			r.Complete(d.vm.Env, e.Status())
		}
	}
}

// refSubmit is the driver's submission as the blocking call it was before
// SubmitFunc, kept as the oracle for TestSubmitLockstepWithProcessReference:
// the calling process charges the submission cost, parks on the slot
// condition while the queue or tag space is full, and issues.
func (d *NVMeDisk) refSubmit(p *sim.Proc, vcpu *sim.Thread, r *Req) {
	st := d.qpFor(vcpu)
	r.Submitted = p.Now()
	vcpu.Exec(p, d.costs.Submit)
	for st.full() {
		st.slotCond.Wait()
	}
	st.issue(r)
}
