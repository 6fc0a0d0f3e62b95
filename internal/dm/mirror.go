package dm

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Mirror is the dm-mirror (RAID1) target: writes go synchronously to both
// legs and complete when both finish; reads are served by the primary leg.
// The paper's replication baseline stacks this over a local NVMe block
// device and a remote NVMe-oF-attached device.
type Mirror struct {
	Primary   blockdev.BlockDevice
	Secondary blockdev.BlockDevice
}

// SubmitBio implements BlockDevice.
func (m *Mirror) SubmitBio(p *sim.Proc, th *sim.Thread, b *bio) {
	blockdev.SubmitAndWait(p, m, th, b)
}

// SubmitFunc implements blockdev.BlockDevice: reads go to the primary;
// writes, flushes and discards go to both legs, one after the other, and
// complete when both do.
func (m *Mirror) SubmitFunc(th *sim.Thread, b *bio, then func()) {
	switch b.Op {
	case blockdev.BioRead:
		m.Primary.SubmitFunc(th, b, then)
	case blockdev.BioWrite, blockdev.BioFlush, blockdev.BioDiscard:
		remaining := 2
		var firstErr nvme.Status = nvme.SCSuccess
		orig := b.OnDone
		join := func(st nvme.Status) {
			if !st.OK() && firstErr.OK() {
				firstErr = st
			}
			remaining--
			if remaining == 0 {
				orig(firstErr)
			}
		}
		b1 := *b
		b1.OnDone = join
		b2 := *b
		b2.OnDone = join
		m.Primary.SubmitFunc(th, &b1, func() { m.Secondary.SubmitFunc(th, &b2, then) })
	default:
		then()
	}
}
