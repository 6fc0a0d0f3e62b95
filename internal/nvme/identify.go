package nvme

// NamespaceInfo is the subset of Identify Namespace the stack uses.
type NamespaceInfo struct {
	Size     uint64 // NSZE, in logical blocks
	LBAShift uint8  // log2 of the LBA data size (9 = 512B, 12 = 4K)
}

// BlockSize returns the logical block size in bytes.
func (n NamespaceInfo) BlockSize() uint32 { return 1 << n.LBAShift }
