package blockdev

import (
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// URing is an io_uring-style asynchronous submission interface over a
// BlockDevice: cheap submissions from user context, completions reaped from
// a queue by polling (no syscall per completion). It is what the UIF
// framework and the QEMU baseline use for host file I/O.
type URing struct {
	dev    BlockDevice
	costs  URingCosts
	cq     []URingCQE
	OnComp func() // optional wake for sleeping reapers

	// Stats
	Submitted, Reaped uint64
}

// URingCQE is one completion entry.
type URingCQE struct {
	UserData uint64
	Status   nvme.Status
}

// URingCosts models the submission/reap overhead. io_uring's advantage over
// classic syscalls is the small constant here.
type URingCosts struct {
	Submit sim.Duration // SQE prep + ring doorbell (amortized syscall)
	Reap   sim.Duration // per-CQE handling
}

// DefaultURingCosts returns the calibrated io_uring cost model.
func DefaultURingCosts() URingCosts {
	return URingCosts{Submit: 900 * sim.Nanosecond, Reap: 300 * sim.Nanosecond}
}

// NewURing creates a ring over dev.
func NewURing(env *sim.Env, dev BlockDevice, costs URingCosts) *URing {
	return &URing{dev: dev, costs: costs}
}

// Submit queues an asynchronous read/write of data at sector.
func (u *URing) Submit(p *sim.Proc, thread *sim.Thread, op BioOp, sector uint64, data []byte, userData uint64) {
	thread.Exec(p, u.costs.Submit)
	u.Submitted++
	bio := &Bio{Op: op, Sector: sector, Data: data}
	bio.OnDone = func(st nvme.Status) {
		u.cq = append(u.cq, URingCQE{UserData: userData, Status: st})
		if u.OnComp != nil {
			u.OnComp()
		}
	}
	u.dev.SubmitBio(p, thread, bio)
}

// Reap drains up to max completion entries (0 = all), charging the reaping
// thread per entry. The result is the consumed front of the queue's own
// storage, handed over rather than copied out: completions posted from now on
// land behind it (or in a new array) and never in it, so it stays intact
// while the reaper works through it — yielding per entry, with completions
// arriving and a second polling thread reaping meanwhile — which a result
// buffer reused across calls would not.
func (u *URing) Reap(p *sim.Proc, thread *sim.Thread, max int) []URingCQE {
	n := len(u.cq)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := u.cq[:n:n]
	u.cq = u.cq[n:]
	u.Reaped += uint64(n)
	thread.Exec(p, u.costs.Reap*sim.Duration(n))
	return out
}

// Pending reports queued-but-unreaped completions.
func (u *URing) Pending() int { return len(u.cq) }
