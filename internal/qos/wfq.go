package qos

import (
	"fmt"

	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

// Arbiter is a virtual-time weighted fair queueing (start-time fair
// queueing) scheduler over tenants. The router worker consults it before
// popping a command from a tenant's shadowed SQ:
//
//	a.Tick(now)                      // once per poll round
//	if a.Eligible(t, bytes, now) {   // buckets + admission control
//	    if best == nil || a.Before(t, best) { best = t }
//	}
//	...
//	a.Serve(best, bytes, now)        // consume tokens, advance tags
//
// Commands that are not admitted simply stay in their SQ; the guest's
// driver blocks on a full ring, so throttling backpressures end to end
// instead of dropping.
//
// Virtual time follows SFQ: a command's start tag is max(V, F_tenant),
// its finish tag start + cost/weight, and V advances to the served start
// tag. Costs are payload-proportional service units scaled by the
// command's class multiplier; the class is only known after the
// classifier runs, so Serve charges the base cost and ChargeClass applies
// the multiplier delta retroactively to the tenant's finish tag.
type Arbiter struct {
	cfg     Config
	tenants []*Tenant
	vtime   float64 // global virtual time

	nextEnd sim.Time // the earliest tenant winEnd (see NextWindowEnd)

	overloaded bool // an SLO tenant missed its target last window
	cleanRuns  int  // consecutive windows with all SLOs met
	Sheds      uint64
	Restores   uint64
}

// NewArbiter creates an arbiter with the given tuning.
func NewArbiter(cfg Config) *Arbiter {
	return &Arbiter{cfg: cfg.withDefaults(), nextEnd: sim.Never}
}

// Config returns the arbiter's tuning after defaulting.
func (a *Arbiter) Config() Config { return a.cfg }

// AddTenant registers a tenant. Tenants joining late start at the
// current virtual time so they cannot claim service for their absence.
func (a *Arbiter) AddTenant(name string, cfg TenantConfig) *Tenant {
	t := &Tenant{
		name:   name,
		finish: a.vtime,
		lat:    metrics.NewHistogram(),
		winLat: metrics.NewHistogram(),
	}
	win := int64(a.cfg.Window)
	t.rateOps = metrics.NewRate(win, a.cfg.RateAlpha)
	t.rateBytes = metrics.NewRate(win, a.cfg.RateAlpha)
	a.tenants = append(a.tenants, t)
	a.nextEnd = 0 // t's first window opens on the next Tick
	a.Configure(t, cfg)
	return t
}

// Configure replaces t's contract in place — weight, rate limits, SLO
// target — preserving its scheduling position and statistics. Fresh
// buckets start full (a reconfigured tenant gets its new burst).
func (a *Arbiter) Configure(t *Tenant, cfg TenantConfig) {
	w := cfg.Weight
	if w <= 0 {
		w = 1
	}
	t.cfg = cfg
	t.weight = w
	t.ops, t.bytes = nil, nil
	if cfg.IOPS > 0 {
		burst := cfg.BurstOps
		if burst <= 0 {
			burst = cfg.IOPS / 10
		}
		t.ops = NewBucket(cfg.IOPS, burst)
	}
	if cfg.BytesPerSec > 0 {
		burst := cfg.BurstBytes
		if burst <= 0 {
			burst = cfg.BytesPerSec / 10
		}
		t.bytes = NewBucket(cfg.BytesPerSec, burst)
	}
	if t.finish < a.vtime {
		t.finish = a.vtime
	}
}

// Tenants returns the registered tenants in registration order.
func (a *Arbiter) Tenants() []*Tenant { return a.tenants }

// cost converts a payload size to base service units.
func (a *Arbiter) cost(bytes int) float64 {
	c := float64(bytes) / a.cfg.BytesPerUnit
	if c < 1 {
		c = 1
	}
	return c
}

// Eligible reports whether tenant t may admit a command of the given
// payload size at now: it must not be shed by the admission controller,
// and both token buckets must cover the command. Ineligibility updates
// the tenant's Throttled/Deferred counters so backpressure is visible;
// callers that rescan the same queue head within one poll round should
// use Admissible on the rescans so each deferred command counts once per
// round, not once per scan.
func (a *Arbiter) Eligible(t *Tenant, bytes int, now sim.Time) bool {
	if t.shed {
		t.Deferred++
		return false
	}
	if !t.ops.Has(1, now) || !t.bytes.Has(float64(bytes), now) {
		t.Throttled++
		return false
	}
	return true
}

// Admissible is Eligible without the counter side effects, for repeated
// scans of a queue head already counted this poll round.
func (a *Arbiter) Admissible(t *Tenant, bytes int, now sim.Time) bool {
	return !t.shed && t.ops.Has(1, now) && t.bytes.Has(float64(bytes), now)
}

// start returns t's virtual start tag for its next command.
func (a *Arbiter) start(t *Tenant) float64 {
	if t.finish > a.vtime {
		return t.finish
	}
	return a.vtime
}

// Before reports whether t should be served ahead of u (smaller start
// tag wins; ties go to the earlier-registered tenant via the caller's
// scan order, so Before is strict).
func (a *Arbiter) Before(t, u *Tenant) bool {
	return a.start(t) < a.start(u)
}

// Serve admits one command of the given payload size for t: consumes its
// tokens, advances the tenant finish tag and global virtual time, and
// feeds the rate gauges. Returns the base cost charged (for a later
// ChargeClass adjustment).
func (a *Arbiter) Serve(t *Tenant, bytes int, now sim.Time) float64 {
	t.ops.Take(1, now)
	t.bytes.Take(float64(bytes), now)
	s := a.start(t)
	c := a.cost(bytes)
	t.finish = s + c/t.weight
	a.vtime = s
	t.Admitted++
	t.rateOps.Observe(1, int64(now))
	t.rateBytes.Observe(float64(bytes), int64(now))
	return c
}

// ChargeClass applies a command's class cost multiplier retroactively:
// Serve charged baseCost at class-default weighting, and the classifier
// only tags the class afterwards, so the finish tag is adjusted by the
// multiplier delta. A latency-class command refunds service, a bulk or
// scavenger command charges extra, pushing the tenant's next start tag
// out in proportion.
func (a *Arbiter) ChargeClass(t *Tenant, baseCost float64, class Class) {
	if class >= NumClasses {
		class = ClassDefault
	}
	t.PerClass[class]++
	mul := a.cfg.ClassCost[class]
	if mul == 1 {
		return
	}
	t.finish += baseCost * (mul - 1) / t.weight
	if t.finish < a.vtime {
		t.finish = a.vtime
	}
}

// ObserveLatency records a completed command's submit-to-complete latency
// for SLO tracking.
func (a *Arbiter) ObserveLatency(t *Tenant, d sim.Duration) {
	t.lat.Record(int64(d))
	t.winLat.Record(int64(d))
}

// Tick drives SLO windows and the admission controller; the router calls
// it once per poll round. When any non-best-effort tenant's windowed p99
// exceeds its target, all best-effort tenants are shed; after
// RecoverWindows consecutive clean windows they are restored.
//
// Before the earliest window end no window can roll and the minimum cannot
// move, so Tick returns at once: a round costs O(tenants) only when a window
// ends. A tenant that joined since the last pass has no window yet and holds
// NextWindowEnd at zero (see AddTenant), which forces the pass that opens it.
func (a *Arbiter) Tick(now sim.Time) {
	if now < a.nextEnd {
		return
	}
	rolled, missed := false, false
	a.nextEnd = sim.Never
	for _, t := range a.tenants {
		if t.winEnd == 0 {
			t.winEnd = now + sim.Time(a.cfg.Window)
			a.nextEnd = min(a.nextEnd, t.winEnd)
			continue
		}
		// Roll the tenant's SLO window (possibly several at once after an
		// idle stretch — empty windows count as met).
		for now >= t.winEnd {
			if t.cfg.SLOTargetP99 > 0 && !t.cfg.BestEffort {
				rolled = true
				if t.winLat.Count() > 0 && sim.Duration(t.winLat.Quantile(0.99)) > t.cfg.SLOTargetP99 {
					t.missed++
					missed = true
				} else {
					t.met++
				}
			}
			t.winLat.Reset()
			t.winEnd += sim.Time(a.cfg.Window)
		}
		a.nextEnd = min(a.nextEnd, t.winEnd)
	}
	if !rolled {
		return
	}
	if missed {
		a.overloaded = true
		a.cleanRuns = 0
		for _, t := range a.tenants {
			if t.cfg.BestEffort && !t.shed {
				t.shed = true
				a.Sheds++
			}
		}
		return
	}
	if a.overloaded {
		a.cleanRuns++
		if a.cleanRuns >= a.cfg.RecoverWindows {
			a.overloaded = false
			a.cleanRuns = 0
			for _, t := range a.tenants {
				if t.shed {
					t.shed = false
					a.Restores++
				}
			}
		}
	}
}

// NextWindowEnd returns the earliest instant at which Tick rolls a tenant's
// SLO window (sim.Never with no tenants). Tick evaluates the admission
// controller once per call, however many windows that call rolls, so a
// caller that elides idle poll rounds must not skip a Tick across this
// instant. A tenant whose first window the next Tick has yet to open
// reports time zero: nothing may be skipped until it has one. Only Tick
// moves a window, so it keeps the minimum and this is O(1).
func (a *Arbiter) NextWindowEnd() sim.Time { return a.nextEnd }

// Overloaded reports whether the admission controller is currently in
// the shedding state.
func (a *Arbiter) Overloaded() bool { return a.overloaded }

// TenantSnapshot is a point-in-time view of one tenant's QoS state.
type TenantSnapshot struct {
	Name       string
	Weight     float64
	BestEffort bool
	Shed       bool

	IOPS     float64 // smoothed admitted ops/s
	BytesPS  float64 // smoothed admitted bytes/s
	OpsLevel float64 // ops bucket fill fraction [0,1]
	BytLevel float64 // bytes bucket fill fraction [0,1]

	P99       sim.Duration // cumulative p99 latency
	SLOTarget sim.Duration
	SLOMet    uint64 // windows meeting the target
	SLOMissed uint64

	Admitted  uint64
	Throttled uint64
	Deferred  uint64
	PerClass  [NumClasses]uint64
}

// Attainment returns the fraction of SLO windows that met the target,
// or 1 when no windows have completed.
func (s TenantSnapshot) Attainment() float64 {
	if n := s.SLOMet + s.SLOMissed; n > 0 {
		return float64(s.SLOMet) / float64(n)
	}
	return 1
}

// Snapshot captures every tenant's state at now, in registration order.
func (a *Arbiter) Snapshot(now sim.Time) []TenantSnapshot {
	out := make([]TenantSnapshot, 0, len(a.tenants))
	for _, t := range a.tenants {
		out = append(out, TenantSnapshot{
			Name:       t.name,
			Weight:     t.weight,
			BestEffort: t.cfg.BestEffort,
			Shed:       t.shed,
			IOPS:       t.rateOps.PerSec(int64(now)),
			BytesPS:    t.rateBytes.PerSec(int64(now)),
			OpsLevel:   t.ops.Level(now),
			BytLevel:   t.bytes.Level(now),
			P99:        sim.Duration(t.lat.Quantile(0.99)),
			SLOTarget:  t.cfg.SLOTargetP99,
			SLOMet:     t.met,
			SLOMissed:  t.missed,
			Admitted:   t.Admitted,
			Throttled:  t.Throttled,
			Deferred:   t.Deferred,
			PerClass:   t.PerClass,
		})
	}
	return out
}

// Collect exports the arbiter's counters into cs for determinism
// fingerprints and the ctl surface.
func (a *Arbiter) Collect(cs *metrics.CounterSet) {
	cs.Add("qos_sheds", a.Sheds)
	cs.Add("qos_restores", a.Restores)
	for _, t := range a.tenants {
		p := "qos_" + t.name + "_"
		cs.Add(p+"admitted", t.Admitted)
		cs.Add(p+"throttled", t.Throttled)
		cs.Add(p+"deferred", t.Deferred)
		for c := Class(0); c < NumClasses; c++ {
			cs.Add(fmt.Sprintf("%sclass_%s", p, c), t.PerClass[c])
		}
	}
}
