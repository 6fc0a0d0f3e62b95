// Package supervise is the UIF supervision subsystem: a watchdog that
// detects a crashed or wedged userspace I/O function without any
// cooperation from the failed process, and a per-storage-function
// recovery policy that reconciles the commands stranded on its notify
// queues, degrades routing to the fast path where that is semantically
// safe, and restarts the UIF under jittered exponential backoff.
//
// Detection uses two externally observable signals: the attachment's
// progress heartbeat (a counter the poll loop advances whenever it
// services anything) and the router-side NSQ residency age (how long the
// oldest notify-path command has been in flight). A UIF that stops
// moving while commands are outstanding is declared failed when either
// signal crosses its threshold — a wedged process cannot veto this, and
// a dead one cannot be asked.
package supervise

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/fault"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
)

// Function is a storage function's declared recovery policy — what the
// supervisor needs to know to fail it over and bring it back. storfn
// implements it per function; the contract encodes each function's
// idempotency and fallback semantics.
type Function interface {
	// Name labels the supervisor (metrics prefix, jitter stream salt).
	Name() string
	// Reconcile decides the fate of one stranded in-flight command:
	// complete it (with a success status when the effect is already
	// durable elsewhere, a retryable one when no safe fallback exists)
	// or requeue the mediated command on the fast path (only when that
	// is idempotent and semantically equivalent).
	Reconcile(cmd nvme.Command) core.ReconcileDecision
	// Degrade reroutes subsequent commands around the dead UIF — install
	// the fast-path classifier, a dirty-tracking native fallback, or a
	// fail-stop classifier when no bypass is safe.
	Degrade(vc *core.Controller)
	// Rebuild constructs the restarted UIF's handler (state rebuilt from
	// scratch: a cold cache, a fresh crypto context).
	Rebuild() uif.Handler
	// Promote reroutes commands back through the restarted UIF: the
	// routed classifier returns, and any catch-up machinery (resync)
	// is kicked.
	Promote(vc *core.Controller, att *uif.Attachment)
}

// Policy tunes the watchdog and restart behaviour.
type Policy struct {
	// HeartbeatInterval is the watchdog tick period.
	HeartbeatInterval sim.Duration
	// StallThreshold declares failure when the progress heartbeat has
	// not advanced for this long while notify commands are in flight.
	StallThreshold sim.Duration
	// ResidencyDeadline declares failure when the oldest in-flight
	// notify command has been outstanding this long (0 disables). It
	// must sit above the function's worst-case service time — including
	// fabric recovery for remote-backed functions.
	ResidencyDeadline sim.Duration
	// RestartBackoff is the first restart delay; it doubles per
	// consecutive failure up to RestartBackoffCap (0 = uncapped), and each
	// delay is spread by ±restartJitter.
	RestartBackoff    sim.Duration
	RestartBackoffCap sim.Duration
	// HealthyReset is the routed uptime after which the consecutive-
	// failure count (and so the backoff ladder) resets.
	HealthyReset sim.Duration
	// Seed derives the supervisor's jitter stream (per-function salted).
	Seed int64
}

// DefaultPolicy returns a watchdog tuned for microsecond-scale UIF
// service times: sub-millisecond detection, restarts fast enough to
// measure reconvergence inside a simulation window.
func DefaultPolicy() Policy {
	return Policy{
		HeartbeatInterval: 100 * sim.Microsecond,
		StallThreshold:    1 * sim.Millisecond,
		ResidencyDeadline: 5 * sim.Millisecond,
		RestartBackoff:    200 * sim.Microsecond,
		RestartBackoffCap: 5 * sim.Millisecond,
		HealthyReset:      10 * sim.Millisecond,
	}
}

// Validate rejects policies that cannot work.
func (p Policy) Validate() error {
	if p.HeartbeatInterval <= 0 {
		return fmt.Errorf("supervise: HeartbeatInterval must be positive, got %v", p.HeartbeatInterval)
	}
	if p.StallThreshold <= 0 {
		return fmt.Errorf("supervise: StallThreshold must be positive, got %v", p.StallThreshold)
	}
	if p.ResidencyDeadline < 0 || p.RestartBackoffCap < 0 || p.HealthyReset < 0 {
		return fmt.Errorf("supervise: negative duration in policy")
	}
	if p.RestartBackoff <= 0 {
		return fmt.Errorf("supervise: RestartBackoff must be positive, got %v", p.RestartBackoff)
	}
	return nil
}

// restartJitter is the ± fraction of randomization on each restart delay:
// it decorrelates restart stampedes across supervisors.
const restartJitter = 0.2

// State is the supervisor's view of its function.
type State int

// Supervisor states.
const (
	// StateRouted: the UIF is attached and the routed classifier is in.
	StateRouted State = iota
	// StateDegraded: failure detected; commands take the degraded path
	// while a restart is pending.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StateRouted:
		return "routed"
	case StateDegraded:
		return "degraded"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Supervisor watches one storage function's attachment and drives its
// failover/restart lifecycle. Create with Launch.
type Supervisor struct {
	env   *sim.Env
	fw    *uif.Framework
	vc    *core.Controller
	ring  *blockdev.URing
	depth uint32
	fn    Function
	pol   Policy
	inj   *fault.Injector
	rng   *rand.Rand

	att          *uif.Attachment
	state        State
	lastProgress uint64
	lastChange   sim.Time
	lastFailure  sim.Time
	degradedAt   sim.Time
	consecFails  int

	// Stats
	Detections          uint64 // failovers triggered
	StallDetections     uint64 // … by the progress heartbeat
	ResidencyDetections uint64 // … by the NSQ residency deadline
	ReconciledOK        uint64 // stranded commands completed successfully
	ReconciledErr       uint64 // … completed with a (retryable) error
	Requeued            uint64 // … requeued on the fast path
	Restarts            uint64 // successful restart+promote cycles
	DegradedNanos       uint64 // accumulated wall time off the routed path
	DetectRate          *metrics.Rate
}

// Launch wires a supervisor: it performs the initial attach (notify
// queues, framework attachment, classifier promotion) through fn and
// starts the watchdog's heartbeat timer. ring may be nil for handlers that
// never touch the backend.
func Launch(env *sim.Env, fw *uif.Framework, vc *core.Controller, ring *blockdev.URing, depth uint32, fn Function, pol Policy) (*Supervisor, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(fn.Name()))
	s := &Supervisor{
		env: env, fw: fw, vc: vc, ring: ring, depth: depth, fn: fn, pol: pol,
		rng:        rand.New(rand.NewSource(pol.Seed ^ int64(h.Sum64()))),
		DetectRate: metrics.NewRate(int64(sim.Millisecond), 0.3),
	}
	s.attach()
	s.fn.Promote(vc, s.att)
	s.lastChange = env.Now()
	var beat func()
	beat = func() {
		s.tick()
		env.After(s.pol.HeartbeatInterval, beat)
	}
	env.After(0, func() { env.After(s.pol.HeartbeatInterval, beat) })
	return s, nil
}

// attach builds a fresh attachment generation: new notify queues (stale
// ring entries of a dead predecessor can never alias into them) and a
// handler rebuilt from scratch.
func (s *Supervisor) attach() {
	nq := s.vc.AttachUIF(s.depth)
	s.att = s.fw.Attach(nq, s.fn.Rebuild(), s.ring)
	if s.inj != nil {
		s.att.SetFaultInjector(s.inj)
	}
	s.lastProgress = s.att.Progress()
}

// Attachment returns the current attachment generation.
func (s *Supervisor) Attachment() *uif.Attachment { return s.att }

// State returns the supervisor's lifecycle state.
func (s *Supervisor) State() State { return s.state }

// SetFaultInjector arms inj on the current attachment and every restarted
// generation — the per-attachment UIFCrash/UIFWedge site.
func (s *Supervisor) SetFaultInjector(inj *fault.Injector) {
	s.inj = inj
	s.att.SetFaultInjector(inj)
}

// tick takes one watchdog observation, every HeartbeatInterval.
func (s *Supervisor) tick() {
	if s.state != StateRouted {
		return // failover in progress
	}
	now := s.env.Now()
	if s.consecFails > 0 && s.pol.HealthyReset > 0 && now.Sub(s.lastFailure) >= s.pol.HealthyReset {
		s.consecFails = 0 // sustained health resets the backoff ladder
	}
	if prog := s.att.Progress(); prog != s.lastProgress {
		s.lastProgress = prog
		s.lastChange = now
	}
	inflight := s.vc.NotifyInFlight()
	if inflight == 0 {
		// Idle is not stalled; a UIF that died with nothing in flight is
		// detected as soon as the next command strands.
		s.lastChange = now
		return
	}
	stalled := now.Sub(s.lastChange) >= s.pol.StallThreshold
	overdue := s.pol.ResidencyDeadline > 0 && s.vc.OldestNotifyAge(now) >= s.pol.ResidencyDeadline
	if !stalled && !overdue {
		return
	}
	if stalled {
		s.StallDetections++
	}
	if overdue {
		s.ResidencyDetections++
	}
	s.failover(now)
}

// failover kills the attachment, degrades routing, reconciles the
// stranded commands and schedules the restart.
func (s *Supervisor) failover(now sim.Time) {
	s.Detections++
	s.DetectRate.Observe(1, int64(now))
	s.consecFails++
	s.lastFailure = now
	s.degradedAt = now
	s.state = StateDegraded
	s.att.Kill()
	s.fn.Degrade(s.vc)
	s.vc.ReconcileNotify(s.decide, nil)
	s.env.After(s.backoffDelay(), s.restart)
}

// decide counts and forwards one reconcile verdict.
func (s *Supervisor) decide(cmd nvme.Command) core.ReconcileDecision {
	d := s.fn.Reconcile(cmd)
	switch {
	case d.Action == core.ReconcileRequeue:
		s.Requeued++
	case d.Status.OK():
		s.ReconciledOK++
	default:
		s.ReconciledErr++
	}
	return d
}

// backoffDelay returns the next restart delay: exponential in the
// consecutive-failure count, capped, jittered, and never below 1µs.
func (s *Supervisor) backoffDelay() sim.Duration {
	d := sim.Backoff(s.pol.RestartBackoff, s.pol.RestartBackoffCap, s.consecFails, restartJitter, s.rng)
	return max(d, sim.Microsecond)
}

// restart brings up the next attachment generation. The routed classifier
// is only promoted after a second reconcile sweep retires anything a
// stale backpressure retry delivered to the dead generation's queues —
// while still degraded, no *new* commands can reach the notify path, so
// the sweep can never touch a healthy in-flight command.
func (s *Supervisor) restart() {
	if s.state != StateDegraded {
		return
	}
	s.attach()
	s.vc.ReconcileNotify(s.decide, func(int) { s.promote() })
}

// promote returns the function to the routed path.
func (s *Supervisor) promote() {
	if s.state != StateDegraded {
		return
	}
	now := s.env.Now()
	s.DegradedNanos += uint64(now.Sub(s.degradedAt))
	s.fn.Promote(s.vc, s.att)
	s.state = StateRouted
	s.Restarts++
	s.lastProgress = s.att.Progress()
	s.lastChange = now
}

// degradedTime returns accumulated time off the routed path, including
// the currently open degradation window.
func (s *Supervisor) degradedTime() sim.Duration {
	d := sim.Duration(s.DegradedNanos)
	if s.state != StateRouted {
		d += s.env.Now().Sub(s.degradedAt)
	}
	return d
}

// Collect folds the supervisor's counters into cs under "sup.<name>.".
func (s *Supervisor) Collect(cs *metrics.CounterSet) {
	p := "sup." + s.fn.Name() + "."
	cs.Add(p+"detections", s.Detections)
	cs.Add(p+"stall_detections", s.StallDetections)
	cs.Add(p+"residency_detections", s.ResidencyDetections)
	cs.Add(p+"reconciled_ok", s.ReconciledOK)
	cs.Add(p+"reconciled_err", s.ReconciledErr)
	cs.Add(p+"requeued", s.Requeued)
	cs.Add(p+"restarts", s.Restarts)
	cs.Add(p+"degraded_us", uint64(s.degradedTime()/sim.Microsecond))
}

// String renders the supervisor's state for control-plane dumps.
func (s *Supervisor) String() string {
	return fmt.Sprintf("sup{%s %v fails=%d detections=%d restarts=%d degraded=%v}",
		s.fn.Name(), s.state, s.consecFails, s.Detections, s.Restarts, s.degradedTime())
}
