package virtio

// Publish makes head the next available entry without building a chain,
// as a guest that bypasses its driver would.
func (v *Vring) Publish(head uint16) {
	v.writeU16(v.availAddr+4+uint64(v.availIdx%v.size)*2, head)
	v.availIdx++
	v.writeU16(v.availAddr+2, v.availIdx)
}

// WriteDesc overwrites descriptor i in guest memory.
func (v *Vring) WriteDesc(i uint16, d Desc) { v.writeDesc(i, d) }
