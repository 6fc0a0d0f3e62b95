// Package nvmeof simulates NVMe over Fabrics for the replication use case:
// an RDMA-class link (latency + bandwidth), a target on the remote host
// that services capsules against its local NVMe device, and an initiator
// that exposes the remote namespace as a host block device. The paper's
// setup — "two hosts connected using NVMe over Infiniband" — maps to one
// Link between two simulated hosts.
package nvmeof

import (
	"cmp"
	"fmt"
	"slices"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/bufpool"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Link is a full-duplex fabric link with an analytic serialization model:
// each direction is a channel whose next-free time advances by size/BW per
// message, plus a propagation latency.
type Link struct {
	env     *sim.Env
	Latency sim.Duration
	BW      float64 // bytes/sec per direction
	nextTx  [2]sim.Time
	outages []fault.Outage
	onUp    []func()

	// Stats
	Messages [2]uint64
	Bytes    [2]uint64
	Drops    [2]uint64 // messages lost to outage windows
	Outages  uint64    // scheduled outage windows
}

// Directions.
const (
	DirToTarget = 0
	DirToHost   = 1
)

// NewLink creates a link. Defaults approximate FDR Infiniband: ~5 µs
// one-way latency, ~6 GB/s per direction.
func NewLink(env *sim.Env, latency sim.Duration, bw float64) *Link {
	return &Link{env: env, Latency: latency, BW: bw}
}

// DefaultLink returns the calibrated Infiniband-class link.
func DefaultLink(env *sim.Env) *Link {
	return NewLink(env, 5*sim.Microsecond, 6e9)
}

// ScheduleOutage declares the link down for [at, at+dur): messages whose
// transmission or arrival falls inside the window are silently lost. When
// the window closes, registered OnUp callbacks fire so initiators can
// requeue in-flight commands.
func (l *Link) ScheduleOutage(at sim.Time, dur sim.Duration) {
	l.outages = append(l.outages, fault.Outage{At: at, Dur: dur})
	l.Outages++
	l.env.At(at.Add(dur), func() {
		for _, fn := range l.onUp {
			fn()
		}
	})
}

// ApplyPlan schedules every outage in the fault plan on this link.
func (l *Link) ApplyPlan(p *fault.Plan) {
	if p == nil {
		return
	}
	for _, o := range p.Outages() {
		l.ScheduleOutage(o.At, o.Dur)
	}
}

// OnUp registers a callback invoked (in scheduler context) each time an
// outage window closes.
func (l *Link) OnUp(fn func()) { l.onUp = append(l.onUp, fn) }

// down reports whether the link is in an outage window at time t.
func (l *Link) down(t sim.Time) bool {
	for _, o := range l.outages {
		if t >= o.At && t < o.At.Add(o.Dur) {
			return true
		}
	}
	return false
}

// Send delivers fn after the message of size bytes crosses the link in
// direction dir, honoring serialization and propagation delay. A message
// that departs or arrives during an outage window is dropped: fn never
// runs, and recovery is the sender's responsibility.
func (l *Link) Send(dir int, size int, fn func()) {
	now := l.env.Now()
	depart := l.nextTx[dir]
	if depart < now {
		depart = now
	}
	txDone := depart.Add(sim.Duration(float64(size) / l.BW * 1e9))
	l.nextTx[dir] = txDone
	l.Messages[dir]++
	l.Bytes[dir] += uint64(size)
	arrive := txDone.Add(l.Latency)
	if l.down(depart) || l.down(arrive) {
		l.Drops[dir]++
		return
	}
	l.env.At(arrive, fn)
}

// capsuleHeader approximates the NVMe-oF capsule overhead in bytes.
const capsuleHeader = 72

// Target is the remote host's NVMe-oF target: a worker thread that services
// incoming capsules against the remote block device.
type Target struct {
	env   *sim.Env
	bdev  blockdev.BlockDevice
	th    *sim.Thread
	queue []capsule
	wake  *sim.Cond
	// PerCmd is the target-side processing cost per capsule.
	PerCmd sim.Duration

	Served uint64
}

type capsule struct {
	op     blockdev.BioOp
	sector uint64
	data   []byte
	nsect  uint32
	reply  func(nvme.Status, []byte)
}

// NewTarget starts a target over bdev using a thread on the remote CPU.
func NewTarget(env *sim.Env, bdev blockdev.BlockDevice, remoteCPU *sim.CPU) *Target {
	t := &Target{env: env, bdev: bdev, th: remoteCPU.NewThread("nvmeof-tgt"), wake: sim.NewCond(env), PerCmd: 2 * sim.Microsecond}
	env.Go("nvmeof-target", t.run)
	return t
}

func (t *Target) run(p *sim.Proc) {
	for {
		if len(t.queue) == 0 {
			t.wake.Wait()
			continue
		}
		c := t.queue[0]
		t.queue[0] = capsule{} // the consumed slot must not keep the payload reachable
		t.queue = t.queue[1:]
		t.th.Exec(p, t.PerCmd)
		t.Served++
		bio := &blockdev.Bio{Op: c.op, Sector: c.sector, Data: c.data, NSect: c.nsect}
		reply := c.reply
		data := c.data
		isRead := c.op == blockdev.BioRead
		bio.OnDone = func(st nvme.Status) {
			if isRead {
				reply(st, data)
			} else {
				reply(st, nil)
			}
		}
		t.bdev.SubmitBio(p, t.th, bio)
	}
}

// InitiatorRecovery is the initiator's command-recovery policy.
type InitiatorRecovery struct {
	Timeout    sim.Duration // per-attempt response deadline
	MaxRetries int          // resends before the command fails with SCPathError
	Backoff    sim.Duration // first retry delay; doubles per attempt
	// BackoffCap bounds the doubled delay (0 = uncapped): without it, deep
	// retry ladders overshoot the outage end by most of a doubled period.
	BackoffCap sim.Duration
	// Jitter spreads each delay by a ± fraction in [0, 1), drawn from the
	// environment's seeded stream — resends of commands that timed out
	// together stop hammering the recovered target in one burst.
	Jitter float64
}

// DefaultInitiatorRecovery returns a policy tolerant of deep target queues:
// a command only times out if the fabric genuinely lost it.
func DefaultInitiatorRecovery() InitiatorRecovery {
	return InitiatorRecovery{
		Timeout:    50 * sim.Millisecond,
		MaxRetries: 4,
		Backoff:    100 * sim.Microsecond,
		BackoffCap: 5 * sim.Millisecond,
		Jitter:     0.25,
	}
}

// ofPending is one in-flight command on the initiator.
type ofPending struct {
	id      uint32 // submission sequence; i.pend is ordered by it
	op      blockdev.BioOp
	sector  uint64
	nsect   uint32
	payload []byte // in-capsule write data or read-reply scratch
	dst     []byte // read destination in the caller's buffer
	done    func(nvme.Status)
	size    int // request capsule size
	attempt int
	fin     bool
}

// Initiator exposes the remote namespace as a local BlockDevice. It keeps
// an in-flight command table: a command whose response does not arrive
// within the recovery timeout is resent with exponential backoff, commands
// in flight when an outage ends are requeued immediately, and a command
// that exhausts its retries completes with SCPathError.
type Initiator struct {
	env  *sim.Env
	link *Link
	tgt  *Target
	// PerCmd is the host-side submission cost (RDMA post + completion).
	PerCmd sim.Duration
	rec    InitiatorRecovery
	pend   []*ofPending // FIFO; deterministic requeue order
	onUp   []func()     // upper-layer reconnect hooks (e.g. resync triggers)

	bufs      bufpool.Pool // capsule payloads and read-reply scratch
	pendSeq   uint32
	deadlines *sim.Deadlines // per-attempt response deadlines, keyed (id, attempt)

	// Stats
	Sent           uint64
	Retries        uint64 // resends after a per-attempt timeout
	Requeues       uint64 // resends triggered by link recovery
	Reconnects     uint64 // outage-end events observed
	Failures       uint64 // commands failed with SCPathError
	StaleResponses uint64 // responses for a superseded or finished attempt
	GuardErrors    uint64 // read replies failing protection-info verification

	verifier blockdev.ReadVerifier
}

// NewInitiator connects to tgt over link.
func NewInitiator(env *sim.Env, link *Link, tgt *Target) *Initiator {
	i := &Initiator{env: env, link: link, tgt: tgt, PerCmd: 1500 * sim.Nanosecond, rec: DefaultInitiatorRecovery()}
	i.deadlines = sim.NewDeadlines(env,
		func(id, attempt uint32) bool { return i.awaited(id, attempt) != nil },
		func(id, attempt uint32) { i.onTimeout(i.awaited(id, attempt)) })
	link.OnUp(i.onLinkUp)
	return i
}

// SetVerifier installs a protection-info verifier on the read receive
// path (nil detaches).
func (i *Initiator) SetVerifier(v blockdev.ReadVerifier) { i.verifier = v }

// Validate rejects policies that would silently misbehave rather than
// recover: retrying a negative number of times or arming negative timers.
func (rec InitiatorRecovery) Validate() error {
	if rec.MaxRetries < 0 {
		return fmt.Errorf("nvmeof: negative MaxRetries %d", rec.MaxRetries)
	}
	if rec.Timeout < 0 {
		return fmt.Errorf("nvmeof: negative Timeout %v", rec.Timeout)
	}
	if rec.Backoff < 0 {
		return fmt.Errorf("nvmeof: negative Backoff %v", rec.Backoff)
	}
	if rec.BackoffCap < 0 {
		return fmt.Errorf("nvmeof: negative BackoffCap %v", rec.BackoffCap)
	}
	if rec.Jitter < 0 || rec.Jitter >= 1 {
		return fmt.Errorf("nvmeof: Jitter must be in [0,1), got %g", rec.Jitter)
	}
	return nil
}

// SetRecovery replaces the recovery policy (call before traffic starts).
// Invalid policies are rejected and the previous policy stays active.
// Attempts outstanding at the time keep the deadline they were sent under.
func (i *Initiator) SetRecovery(rec InitiatorRecovery) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	i.rec = rec
	return nil
}

// Recovery returns the active recovery policy.
func (i *Initiator) Recovery() InitiatorRecovery { return i.rec }

// OnReconnect registers fn to run each time an outage window closes,
// *after* the initiator has requeued its own in-flight commands — so a
// resync engine triggered from here sees a fabric that already carries
// the requeued foreground traffic.
func (i *Initiator) OnReconnect(fn func()) { i.onUp = append(i.onUp, fn) }

// NumSectors implements BlockDevice.
func (i *Initiator) NumSectors() uint64 { return i.tgt.bdev.NumSectors() }

// SubmitBio implements BlockDevice: the bio crosses the fabric as a
// capsule, is serviced remotely, and the response (with data for reads)
// crosses back.
func (i *Initiator) SubmitBio(p *sim.Proc, th *sim.Thread, b *blockdev.Bio) {
	th.Exec(p, i.PerCmd)
	i.Sent++
	i.pendSeq++
	pe := &ofPending{id: i.pendSeq, op: b.Op, sector: b.Sector, nsect: b.NSect, dst: b.Data, done: b.OnDone, size: capsuleHeader}
	if b.Op == blockdev.BioWrite {
		// In-capsule data (RDMA write); copy because the caller may reuse
		// its buffer after completion.
		pe.payload = i.bufs.Get(len(b.Data))
		copy(pe.payload, b.Data)
		pe.size += len(pe.payload)
	} else if b.Op == blockdev.BioRead {
		pe.payload = i.bufs.Get(len(b.Data))
	}
	i.pend = append(i.pend, pe)
	i.send(pe)
}

// send transmits one attempt of pe and arms its response deadline.
func (i *Initiator) send(pe *ofPending) {
	pe.attempt++
	attempt := pe.attempt
	i.link.Send(DirToTarget, pe.size, func() {
		i.tgt.queue = append(i.tgt.queue, capsule{
			op: pe.op, sector: pe.sector, data: pe.payload, nsect: pe.nsect,
			reply: func(st nvme.Status, rdata []byte) {
				rsize := capsuleHeader
				if pe.op == blockdev.BioRead {
					rsize += len(rdata)
				}
				i.link.Send(DirToHost, rsize, func() {
					i.complete(pe, attempt, st, rdata)
				})
			},
		})
		i.tgt.wake.Signal(nil)
	})
	// The deadline is queued by (id, attempt), never as a closure over pe:
	// a timer that can reach pe keeps the payload alive for the whole
	// Timeout after the command finished.
	if i.rec.Timeout > 0 {
		i.deadlines.Add(pe.id, uint32(attempt), i.env.Now().Add(i.rec.Timeout))
	}
}

// awaited returns the pending command id if its current attempt is the
// given one, nil if it finished or was resent since.
func (i *Initiator) awaited(id, attempt uint32) *ofPending {
	n, ok := slices.BinarySearchFunc(i.pend, id, func(pe *ofPending, id uint32) int { return cmp.Compare(pe.id, id) })
	if !ok || uint32(i.pend[n].attempt) != attempt {
		return nil
	}
	return i.pend[n]
}

// complete finishes pe on a response for the given attempt. Responses for
// an earlier attempt (the resend raced an in-flight original) or for an
// already-finished command are counted and dropped.
func (i *Initiator) complete(pe *ofPending, attempt int, st nvme.Status, rdata []byte) {
	if pe.fin || pe.attempt != attempt {
		i.StaleResponses++
		return
	}
	i.finish(pe, st, rdata)
	if pe.attempt == 1 {
		// The one capsule that ever carried the payload has been answered,
		// so the target is done with it. After a resend an earlier
		// attempt's capsule may still sit in the fabric or the target's
		// queue: that payload is left to the garbage collector.
		i.bufs.Put(pe.payload)
	}
}

func (i *Initiator) finish(pe *ofPending, st nvme.Status, rdata []byte) {
	pe.fin = true
	i.unqueue(pe)
	if pe.op == blockdev.BioRead && st.OK() {
		copy(pe.dst, rdata)
		if i.verifier != nil && !i.verifier.VerifySectors(pe.sector, pe.dst) {
			// The fabric delivered data the protection info disowns:
			// report a guard error. The payload stays in the caller's
			// buffer for diagnosing layers (the scrubber).
			i.GuardErrors++
			st = nvme.SCGuardCheck
		}
	}
	pe.done(st)
}

// unqueue removes pe from the pending FIFO, preserving order.
func (i *Initiator) unqueue(pe *ofPending) {
	for n, q := range i.pend {
		if q == pe {
			i.pend = slices.Delete(i.pend, n, n+1)
			return
		}
	}
}

// onTimeout handles a lost attempt: resend with capped, jittered
// exponential backoff, or fail the command once retries are exhausted.
func (i *Initiator) onTimeout(pe *ofPending) {
	if pe.attempt > i.rec.MaxRetries {
		i.Failures++
		i.finish(pe, nvme.SCPathError, nil)
		return
	}
	attempt := pe.attempt
	i.env.After(sim.Backoff(i.rec.Backoff, i.rec.BackoffCap, attempt, i.rec.Jitter, i.env.Rand()), func() {
		if !pe.fin && pe.attempt == attempt {
			i.Retries++
			i.send(pe)
		}
	})
}

// onLinkUp requeues every in-flight command as soon as an outage window
// closes, rather than waiting for each command's timeout to expire.
func (i *Initiator) onLinkUp() {
	i.Reconnects++
	requeue := append([]*ofPending(nil), i.pend...)
	for _, pe := range requeue {
		if pe.fin {
			continue
		}
		i.Requeues++
		i.send(pe)
	}
	for _, fn := range i.onUp {
		fn()
	}
}

func (l *Link) String() string {
	return fmt.Sprintf("link{lat=%v bw=%.1fGB/s tx=%d/%d}", l.Latency, l.BW/1e9, l.Messages[0], l.Messages[1])
}
