package device

import "nvmetro/internal/nvme"

// Partition is a fixed LBA window of a namespace, the unit a virtual
// controller is attached to ("virtual controllers can be attached to an
// entire NVMe namespace on the drive, or a fixed partition of that
// namespace"). It is the one definition of a tenant's extent: whoever turns a
// guest-relative range into device addresses (the mediation layer of MDev, the
// host block device under QEMU, vhost-scsi and the dm targets, the SPDK
// reactor) does it with Translate, and the NVMetro router, whose classifiers
// do the rewriting in eBPF, checks what they produced with Contains.
type Partition struct {
	Dev    *Device
	NSID   uint32
	Start  uint64 // first device LBA
	Blocks uint64 // size in blocks
}

// WholeNamespace returns a partition covering all of namespace nsid.
func WholeNamespace(d *Device, nsid uint32) Partition {
	ns := d.Namespace(nsid)
	return Partition{Dev: d, NSID: nsid, Start: 0, Blocks: ns.Info.Size}
}

// Carve splits namespace nsid of the device into n equal partitions.
func Carve(d *Device, nsid uint32, n int) []Partition {
	ns := d.Namespace(nsid)
	per := ns.Info.Size / uint64(n)
	parts := make([]Partition, n)
	for i := range parts {
		parts[i] = Partition{Dev: d, NSID: nsid, Start: uint64(i) * per, Blocks: per}
	}
	return parts
}

// BlockSize returns the partition's logical block size.
func (p Partition) BlockSize() uint32 { return p.Dev.Params().BlockSize() }

// Bytes returns the partition size in bytes.
func (p Partition) Bytes() uint64 { return p.Blocks << p.Dev.Params().LBAShift }

// Info returns the namespace info a guest should see for this partition.
func (p Partition) Info() nvme.NamespaceInfo {
	return nvme.NamespaceInfo{Size: p.Blocks, Capacity: p.Blocks, LBAShift: p.Dev.Params().LBAShift}
}

// Translate converts a partition-relative LBA range to device LBAs,
// reporting false when the range exceeds the partition. The guest owns lba:
// lba+blocks may wrap, Blocks-lba cannot.
func (p Partition) Translate(lba uint64, blocks uint32) (uint64, bool) {
	if lba > p.Blocks || uint64(blocks) > p.Blocks-lba {
		return 0, false
	}
	return p.Start + lba, true
}

// TranslateSectors is Translate for a range in 512-byte sectors, the unit of
// the host block layer and of virtio-blk, returning the block count too. A
// range of no whole block is refused with the rest: NLB, being 0-based,
// cannot say "none", and a command built from it would span 65536 blocks.
func (p Partition) TranslateSectors(sector uint64, nsect uint32) (lba uint64, blocks uint32, ok bool) {
	per := p.BlockSize() / 512
	if blocks = nsect / per; blocks == 0 {
		return 0, 0, false
	}
	lba, ok = p.Translate(sector/uint64(per), blocks)
	return lba, blocks, ok
}

// Contains reports whether the device range [abs, abs+blocks) lies inside the
// partition: Translate's check for a command whose LBA was already rewritten.
func (p Partition) Contains(abs uint64, blocks uint32) bool {
	if abs < p.Start {
		return false
	}
	_, ok := p.Translate(abs-p.Start, blocks)
	return ok
}
