package blockdev

// DeadlineLen is the length of the device's deadline queue, for tests.
func (d *NVMeBlockDev) DeadlineLen() int { return d.deadlines.Len() }
