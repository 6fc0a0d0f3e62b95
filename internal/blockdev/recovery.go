package blockdev

import (
	"fmt"

	"nvmetro/internal/sim"
)

// Recovery is the host driver's error-recovery policy: a per-command
// deadline with abort and bounded, exponentially backed-off resubmission —
// the sim equivalent of the kernel's nvme_timeout/abort/reset ladder. A
// timed-out CID is quarantined (not reused) until its late completion
// arrives or the reclaim window expires, so stale completions cannot be
// misattributed to a new command on the same tag.
type Recovery struct {
	Timeout    sim.Duration // per-command deadline (0 disables recovery)
	MaxRetries int          // resubmissions after a timeout before failing the bio
	Backoff    sim.Duration // first retry delay; doubles per attempt
	Reclaim    sim.Duration // quarantine before a lost CID may be reused
}

// DefaultRecovery returns a conservative policy: a deadline far above any
// loaded-device latency (bandwidth-bound sequential writes at QD512 can
// legitimately queue for ~20 ms in the model), so it only ever fires on
// genuinely lost completions. Every host block device runs it; only the
// blockdev tests install tighter policies, through SetRecovery.
func DefaultRecovery() Recovery {
	return Recovery{
		Timeout:    100 * sim.Millisecond,
		MaxRetries: 3,
		Backoff:    100 * sim.Microsecond,
		Reclaim:    200 * sim.Millisecond,
	}
}

// Validate rejects policies that would silently misbehave. A reclaim
// window shorter than the command deadline is the dangerous one: a tag
// could be recycled while its first attempt is still within deadline,
// widening the misattribution window instead of bounding it.
func (rec Recovery) Validate() error {
	if rec.MaxRetries < 0 {
		return fmt.Errorf("blockdev: negative MaxRetries %d", rec.MaxRetries)
	}
	if rec.Timeout < 0 || rec.Backoff < 0 || rec.Reclaim < 0 {
		return fmt.Errorf("blockdev: negative recovery timer (timeout=%v backoff=%v reclaim=%v)",
			rec.Timeout, rec.Backoff, rec.Reclaim)
	}
	if rec.Timeout > 0 && rec.Reclaim < rec.Timeout {
		return fmt.Errorf("blockdev: reclaim window %v shorter than command deadline %v", rec.Reclaim, rec.Timeout)
	}
	return nil
}

// SetRecovery replaces the error-recovery policy (before or between I/O).
// Invalid policies are rejected and the previous policy stays active.
// Attempts outstanding at the time keep the deadline they were submitted
// under.
func (d *NVMeBlockDev) SetRecovery(rec Recovery) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	d.rec = rec
	return nil
}

// Recovery returns the active error-recovery policy.
func (d *NVMeBlockDev) Recovery() Recovery { return d.rec }
