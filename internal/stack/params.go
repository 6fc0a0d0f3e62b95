package stack

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/dm"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// Params collects every calibration constant of the testbed model in one
// place. Rationale for the values:
//
//   - Device: Samsung 970 EVO Plus class (see device.Default970EvoPlus).
//   - Virt costs: KVM trap/IRQ microbenchmark orders on Ivy Bridge Xeons.
//   - WakeLat: scheduler wake-up plus C-state exit for an idle host thread;
//     this is the dominant tax on the event-driven baselines (vhost, QEMU)
//     at low load and the reason the paper's polling solutions (NVMetro,
//     MDev, SPDK) share the low-latency cluster in Fig. 4.
//   - QEMU per-request costs are large (coroutine-based block layer,
//     request plug/unplug, userspace dispatch); they reproduce the ~2.7x
//     QD1 gap of Fig. 3 and the high QEMU latencies of Fig. 4.
//   - QEMU's block layer always coalesces adjacent sequential requests (up
//     to QEMUMergeMax), which is how it overtakes single-worker NVMetro at
//     16K/QD128/1 job.
type Params struct {
	Device device.Params
	Virt   vm.VirtCosts
	Router core.RouterCosts
	Driver vm.DriverCosts
	Block  blockdev.Costs
	URing  blockdev.URingCosts
	UIF    uif.Costs
	Crypt  dm.CryptParams
	Enc    storfn.EncryptorCosts

	// WakeLat is the wake-up latency of a sleeping host service thread.
	WakeLat sim.Duration

	// MDev mediation cost per command (in-module LBA translation).
	MDevMediate sim.Duration

	// QEMU virtio-blk model.
	QEMUIOThreads int          // worker threads per VM
	QEMUPollNS    sim.Duration // iothread adaptive poll window (poll-max-ns)
	QEMUBatch     sim.Duration // event-loop turn: plug/unplug, BH dispatch
	QEMUElem      sim.Duration // virtqueue element pop + guest page map/unmap
	QEMUSubmit    sim.Duration // coroutine + block layer, per (merged) request
	QEMUComplete  sim.Duration // completion dispatch, per request
	QEMUInject    sim.Duration // interrupt injection via KVM ioctl
	QEMUMergeMax  int          // max merged size in bytes

	// vhost-scsi model.
	VhostKick     sim.Duration // ioeventfd vmexit on the vCPU
	VhostParse    sim.Duration // CDB decode + LIO target dispatch per request
	VhostComplete sim.Duration // response build + used-ring update
	VhostInject   sim.Duration // irqfd injection
	VhostWorkers  int          // kernel worker threads per VM

	// SPDK vhost-user model.
	SPDKReactors int          // dedicated polling cores for the SPDK process
	SPDKParse    sim.Duration // vring pop + bdev dispatch per request
	SPDKNVMe     sim.Duration // userspace NVMe driver submit per command
	SPDKInject   sim.Duration // interrupt injection via irqfd

	// Passthrough model.
	PTHostIRQ sim.Duration // host-side cost of forwarding a device IRQ
}

// DefaultParams returns the calibrated testbed (PowerEdge R420-class).
func DefaultParams() Params {
	return Params{
		Device: device.Default970EvoPlus(),
		Virt:   vm.DefaultVirtCosts(),
		Router: core.DefaultRouterCosts(),
		Driver: vm.DefaultDriverCosts(),
		Block:  blockdev.DefaultCosts(),
		URing:  blockdev.DefaultURingCosts(),
		UIF:    uif.DefaultCosts(),
		Crypt:  dm.DefaultCryptParams(),
		Enc:    storfn.DefaultEncryptorCosts(),

		WakeLat:     15 * sim.Microsecond,
		MDevMediate: 150 * sim.Nanosecond,

		QEMUIOThreads: 4,
		QEMUPollNS:    32 * sim.Microsecond,
		QEMUBatch:     30 * sim.Microsecond,
		QEMUElem:      2 * sim.Microsecond,
		QEMUSubmit:    8 * sim.Microsecond,
		QEMUComplete:  4 * sim.Microsecond,
		QEMUInject:    8 * sim.Microsecond,
		QEMUMergeMax:  128 << 10,

		VhostKick:     3 * sim.Microsecond,
		VhostParse:    12 * sim.Microsecond,
		VhostComplete: 3 * sim.Microsecond,
		VhostInject:   1500 * sim.Nanosecond,
		VhostWorkers:  1,

		SPDKReactors: 2,
		SPDKParse:    800 * sim.Nanosecond,
		SPDKNVMe:     800 * sim.Nanosecond,
		SPDKInject:   1000 * sim.Nanosecond,

		PTHostIRQ: 1200 * sim.Nanosecond,
	}
}
