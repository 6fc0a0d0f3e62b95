package blockdev

// DeadlineLen is the length of the device's deadline queue, for tests.
func (d *NVMeBlockDev) DeadlineLen() int { return d.deadlines.Len() }

// The recovery ladder's deadline and first backoff, for tests.
const CmdTimeout, RetryBackoff = cmdTimeout, retryBackoff
