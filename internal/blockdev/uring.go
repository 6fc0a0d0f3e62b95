package blockdev

import (
	"nvmetro/internal/bufpool"
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
	free   []*uringBio
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

// uringBio is one submission's bio, recycled when it completes: OnDone is
// bound once, to done.
type uringBio struct {
	Bio
	u        *URing
	th       *sim.Thread
	userData uint64
	then     func()
	charged  func() // submit, bound once
}

// Submit queues an asynchronous read/write of data at sector on behalf of
// thread; then runs once the submission is charged and handed to the device.
func (u *URing) Submit(thread *sim.Thread, op BioOp, sector uint64, data []byte, userData uint64, then func()) {
	ub := u.take()
	ub.Op, ub.Sector, ub.Data = op, sector, data
	ub.th, ub.userData, ub.then = thread, userData, then
	thread.ExecFunc(u.costs.Submit, ub.charged)
}

func (u *URing) take() *uringBio {
	if n := len(u.free); n > 0 {
		ub := u.free[n-1]
		u.free = u.free[:n-1]
		return ub
	}
	ub := &uringBio{u: u}
	ub.OnDone, ub.charged = ub.done, ub.submit
	return ub
}

func (ub *uringBio) submit() {
	u, th, then := ub.u, ub.th, ub.then
	ub.th, ub.then = nil, nil
	u.Submitted++
	u.dev.SubmitFunc(th, &ub.Bio, then)
}

// done posts the completion entry and recycles the bio: the device is done
// with it once OnDone runs.
func (ub *uringBio) done(st nvme.Status) {
	u := ub.u
	u.cq = append(u.cq, URingCQE{UserData: ub.userData, Status: st})
	ub.Data = nil
	if bufpool.Poison {
		ub.Sector, ub.userData = ^uint64(0), ^uint64(0)
	}
	u.free = append(u.free, ub)
	if u.OnComp != nil {
		u.OnComp()
	}
}

// Reap moves up to max completion entries (0 = all) to the end of dst and
// returns it, charging thread per entry; then runs once the charge is made.
// With nothing to reap it charges nothing, returns dst and never calls then.
// The entries are copied out, so a reaper may work through them across
// continuations while completions keep arriving and another reaper drains
// the ring.
func (u *URing) Reap(thread *sim.Thread, dst []URingCQE, max int, then func()) []URingCQE {
	n := len(u.cq)
	if max > 0 && n > max {
		n = max
	}
	if n == 0 {
		return dst
	}
	dst = append(dst, u.cq[:n]...)
	u.cq = u.cq[:copy(u.cq, u.cq[n:])]
	u.Reaped += uint64(n)
	thread.ExecFunc(u.costs.Reap*sim.Duration(n), then)
	return dst
}

// Pending reports queued-but-unreaped completions.
func (u *URing) Pending() int { return len(u.cq) }
