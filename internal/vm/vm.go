// Package vm models the virtual machine side of the system: guest memory,
// vCPUs pinned to simulated host cores, the cost of VM exits and interrupt
// injection, and the guest-visible asynchronous block device interface that
// every storage stack (NVMetro, MDev, passthrough, QEMU, vhost, SPDK)
// implements.
package vm

import (
	"fmt"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// VirtCosts is the virtualization cost model. Values approximate published
// KVM microbenchmarks on Ivy Bridge-class hardware: a full trap-and-emulate
// round trip is a few microseconds; injecting a virtual interrupt into a
// running guest costs on the order of a microsecond of hypervisor work plus
// guest-side handler time; forwarding a physical device interrupt through
// the host into the guest (passthrough without posted interrupts) is the
// most expensive delivery path.
type VirtCosts struct {
	VMExit       sim.Duration // trap-and-emulate round trip on the vCPU
	GuestIRQ     sim.Duration // guest interrupt handler entry/exit
	HWIRQForward sim.Duration // physical IRQ -> host -> guest forwarding
}

// DefaultVirtCosts returns the calibrated cost model.
func DefaultVirtCosts() VirtCosts {
	return VirtCosts{
		VMExit:       4 * sim.Microsecond,
		GuestIRQ:     1500 * sim.Nanosecond,
		HWIRQForward: 13 * sim.Microsecond,
	}
}

// VM is one virtual machine: memory plus vCPU threads on host cores.
type VM struct {
	ID    int
	Env   *sim.Env
	Mem   *guestmem.Memory
	Costs VirtCosts
	vcpus []*sim.Thread
}

// New creates a VM with memBytes of guest memory and vcpus vCPU threads
// pinned to consecutive host cores starting at firstCore.
func New(env *sim.Env, id int, cpu *sim.CPU, firstCore, vcpus int, memBytes uint64, costs VirtCosts) *VM {
	v := &VM{ID: id, Env: env, Mem: guestmem.New(memBytes), Costs: costs}
	for i := 0; i < vcpus; i++ {
		v.vcpus = append(v.vcpus, cpu.ThreadOn(firstCore+i, fmt.Sprintf("vm%d/guest", id)))
	}
	return v
}

// NumVCPUs returns the vCPU count.
func (v *VM) NumVCPUs() int { return len(v.vcpus) }

// VCPU returns vCPU i.
func (v *VM) VCPU(i int) *sim.Thread { return v.vcpus[i] }

// Op is a guest block operation type.
type Op uint8

// Guest block operations.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpTrim:
		return "trim"
	}
	return "?"
}

// Req is one asynchronous guest block request. Buffers live in guest
// memory; BufPages lists the data pages (as handed out by
// guestmem.AllocBuffer) so drivers can build PRPs or descriptor chains
// without copying. A buffer that lies inside one page, packed beside others
// in it, is the single entry Buf: its first page may start inside the page,
// as a PRP1 may.
type Req struct {
	Op       Op
	LBA      uint64 // in disk logical blocks
	Blocks   uint32 // transfer length in logical blocks
	Buf      uint64 // guest-physical buffer base
	BufPages []uint64

	Status    nvme.Status
	Submitted sim.Time
	Completed sim.Time

	// OnDone, when set, runs in completion context (it must not block on
	// sim primitives; signaling conditions is fine).
	OnDone func(*Req)

	// DriverState is the state a driver keeps for the request while it
	// submits it, cached here so that resubmitting the request allocates
	// nothing. Only the driver the request is being submitted to touches it.
	DriverState any

	done bool
	cond *sim.Cond
}

// Bytes returns the transfer size for a disk with the given block size.
func (r *Req) Bytes(blockSize uint32) uint32 { return r.Blocks * blockSize }

// Complete marks the request done. Drivers call it exactly once.
func (r *Req) Complete(env *sim.Env, status nvme.Status) {
	if r.done {
		panic("vm: request completed twice")
	}
	r.done = true
	r.Status = status
	r.Completed = env.Now()
	if r.cond != nil {
		r.cond.Signal(nil)
	}
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// Reset re-arms a completed request for another submission: the completion
// state is cleared; the operation, buffers and OnDone stay. The issuer may
// only reset a request whose completion it has seen.
func (r *Req) Reset() {
	r.Status, r.Submitted, r.Completed, r.done = nvme.SCSuccess, 0, 0, false
}

// wait parks the calling process until the request completes.
func (r *Req) wait(env *sim.Env) {
	if r.done {
		return
	}
	if r.cond == nil {
		r.cond = sim.NewCond(env)
	}
	r.wait2()
}

// wait2 is the internal wait (cond must exist).
func (r *Req) wait2() {
	for !r.done {
		r.cond.Wait()
	}
}

// Latency returns the request's completion latency.
func (r *Req) Latency() sim.Duration { return r.Completed.Sub(r.Submitted) }

// Disk is the guest-visible asynchronous block device. A command is a
// request plus continuations, never a thread: SubmitFunc charges the
// guest-side submission cost to the given vCPU thread, waits for a free
// queue slot if every one is taken, hands r to the device and then runs then;
// r completes later (guest-side completion costs included), asynchronously.
// SubmitFunc may be called from any simulation context; then runs in
// scheduler context and must not block.
type Disk interface {
	BlockSize() uint32
	Blocks() uint64
	SubmitFunc(vcpu *sim.Thread, r *Req, then func())
}

// SubmitAndWait submits r and parks the calling process until it completes.
func SubmitAndWait(p *sim.Proc, d Disk, vcpu *sim.Thread, r *Req) nvme.Status {
	r.cond = sim.NewCond(p.Env())
	d.SubmitFunc(vcpu, r, submitted)
	r.wait(p.Env())
	return r.Status
}

// submitted is SubmitAndWait's continuation: the process waits for the
// completion, not for the submission.
func submitted() {}
