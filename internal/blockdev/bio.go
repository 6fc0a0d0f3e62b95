// Package blockdev models the host kernel's block layer: bios, the
// NVMe-backed block device (driver submission plus interrupt-context
// completion), an io_uring-style asynchronous submission ring, and the DMA
// buffer pool that backs kernel-space data. Device-mapper targets stack on
// the BlockDevice interface (package dm), and the vhost/QEMU baselines as
// well as NVMetro's kernel path and UIFs all submit through here.
package blockdev

import (
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// SectorSize is the kernel sector unit (512 bytes, as in Linux).
const SectorSize = 512

// BioOp is a block operation type.
type BioOp uint8

// Bio operations.
const (
	BioRead BioOp = iota
	BioWrite
	BioFlush
	BioDiscard
)

func (o BioOp) String() string {
	switch o {
	case BioRead:
		return "read"
	case BioWrite:
		return "write"
	case BioFlush:
		return "flush"
	case BioDiscard:
		return "discard"
	}
	return "?"
}

// Bio is one block I/O request in host kernel space.
type Bio struct {
	Op     BioOp
	Sector uint64 // first 512-byte sector
	Data   []byte // host buffer (nil for flush/discard; Sectors for discard length)
	NSect  uint32 // sector count for data-less ops
	// OnDone runs in completion (interrupt or worker) context and must not
	// block on simulation primitives.
	OnDone func(nvme.Status)
}

// sectors returns the bio's length in sectors.
func (b *Bio) sectors() uint32 {
	if b.Data != nil {
		return uint32(len(b.Data) / SectorSize)
	}
	return b.NSect
}

// BlockDevice is a host-side block device: the stackable unit of the block
// layer. Submission charges the calling thread; completion is asynchronous.
type BlockDevice interface {
	// SubmitFunc queues the bio on behalf of thread, which identifies the
	// submitting kernel context for CPU accounting. It runs in scheduler
	// context and blocks nowhere: then runs once the submitter may go on,
	// as the last act of the event that lets it, and b.OnDone runs at
	// completion.
	SubmitFunc(thread *sim.Thread, b *Bio, then func())
	// SubmitBio is SubmitFunc for a submitter that is a process: every
	// implementation is SubmitAndWait, which the module's process callers
	// call directly (bench/ still calls this form).
	SubmitBio(p *sim.Proc, thread *sim.Thread, b *Bio)
	// NumSectors is the device size in 512-byte sectors.
	NumSectors() uint64
}

// SubmitAndWait submits b to dev from process p and parks p until then
// would run. The process resumes as part of that event (sim.Proc.Await), so
// its view is that of a blocking submission.
func SubmitAndWait(p *sim.Proc, dev BlockDevice, thread *sim.Thread, b *Bio) {
	p.Await(func(then func()) { dev.SubmitFunc(thread, b, then) })
}

// Costs models per-bio block layer CPU costs (submission path through the
// request queue and NVMe driver; completion handling in IRQ context).
type Costs struct {
	Submit   sim.Duration
	Complete sim.Duration
}

// DefaultCosts returns the calibrated block layer cost model.
func DefaultCosts() Costs {
	return Costs{Submit: 3 * sim.Microsecond, Complete: 2 * sim.Microsecond}
}
