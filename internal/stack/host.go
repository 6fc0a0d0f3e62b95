// Package stack assembles the six storage-virtualization solutions the
// paper evaluates — NVMetro, MDev-NVMe, device passthrough, QEMU
// virtio-blk (io_uring), in-kernel vhost-scsi and SPDK vhost-user — behind
// one Solution interface, plus the encrypted (dm-crypt) and mirrored
// (dm-mirror) compositions used in Sections V-C/V-D. An NVMetro volume is
// declared as a Spec and resolved by NVMetro.Attach into a Volume record;
// NVMetro's Provision and CloneFrom are the same resolver behind Solution.
// All calibration constants live in params.go.
package stack

import (
	"fmt"

	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// Host is the simulated testbed machine: cores, one NVMe drive, and a core
// allocation policy (guest cores low, host service threads high), mirroring
// the paper's pinned setup.
type Host struct {
	Env        *sim.Env
	CPU        *sim.CPU
	Dev        *device.Device
	Params     Params
	guestCores int
	nextGuest  int
	nextHost   int
	vmSeq      int
}

// NewHost builds a testbed. guestCores are reserved at the bottom of the
// core range for vCPUs; everything else serves host threads.
func NewHost(env *sim.Env, totalCores, guestCores int, p Params, backing device.Store) *Host {
	return &Host{
		Env:        env,
		CPU:        sim.NewCPU(env, totalCores),
		Dev:        device.New(env, p.Device, backing),
		Params:     p,
		guestCores: guestCores,
		nextHost:   guestCores,
	}
}

// NewVM creates a VM with the given vCPU count on the next guest cores.
func (h *Host) NewVM(vcpus int, memBytes uint64) *vm.VM {
	if h.nextGuest+vcpus > h.guestCores {
		panic(fmt.Sprintf("stack: out of guest cores (%d+%d > %d)", h.nextGuest, vcpus, h.guestCores))
	}
	v := vm.New(h.Env, h.vmSeq, h.CPU, h.nextGuest, vcpus, memBytes, h.Params.Virt)
	h.vmSeq++
	h.nextGuest += vcpus
	return v
}

// hostThread allocates a host service thread round-robin over host cores.
func (h *Host) hostThread(tag string) *sim.Thread {
	core := h.nextHost
	h.nextHost++
	if h.nextHost >= h.CPU.NumCores() {
		h.nextHost = h.guestCores
	}
	return h.CPU.ThreadOn(core, tag)
}

// Solution provisions virtual disks for VMs over partitions of the host
// device.
type Solution interface {
	Provision(v *vm.VM, part device.Partition) vm.Disk
}

// afterWake runs then once a host thread that a Cond.WaitFunc woke is
// running again: the scheduler wake-up event-driven (non-polling) host
// threads pay and polling solutions avoid.
func (h *Host) afterWake(then func()) {
	if lat := h.Params.WakeLat; lat > 0 {
		h.Env.After(lat, then)
		return
	}
	then()
}
