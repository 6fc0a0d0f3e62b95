// Package qos implements multi-tenant QoS arbitration for the NVMetro I/O
// router: a virtual-time weighted fair queueing (WFQ) arbiter deciding
// which VM's pending commands enter each hop, per-tenant IOPS token buckets
// (burst-capable) whose exhaustion backpressures into
// the shadowed submission queue rather than dropping, and per-tenant SLO
// tracking (windowed latency histograms against a p99 target) feeding an
// admission controller that sheds best-effort tenants first under
// overload.
//
// The arbiter is driven synchronously from the router worker loop under
// the simulation run token, so — like the eBPF VM — it needs no internal
// locking, and all of its state evolves deterministically from the
// observation sequence. Classifiers participate through the qos_set_class
// eBPF helper: the sandboxed policy that picks a command's I/O path also
// tags its scheduling class, and the arbiter scales the command's virtual
// service cost by the class multiplier.
package qos

import (
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

// Class is a per-command scheduling class, tagged by the classifier via
// the qos_set_class helper. The class scales the command's virtual
// service cost: low multipliers are scheduled sooner under contention.
type Class uint8

// Scheduling classes.
const (
	ClassDefault   Class = 0 // tenant's native weight
	ClassLatency   Class = 1 // boosted: half service cost
	ClassBulk      Class = 2 // deprioritized: double service cost
	ClassScavenger Class = 3 // strongly deprioritized background work

	NumClasses = 4
)

func (c Class) String() string {
	switch c {
	case ClassDefault:
		return "default"
	case ClassLatency:
		return "latency"
	case ClassBulk:
		return "bulk"
	case ClassScavenger:
		return "scavenger"
	}
	return "?"
}

// TenantConfig is one tenant's QoS contract.
type TenantConfig struct {
	// Weight is the WFQ share (relative to the other tenants' weights);
	// <= 0 means 1.
	Weight float64
	// IOPS is a token-bucket rate limit (0 = unlimited). BurstOps is the
	// bucket capacity; 0 defaults to one tenth of a second of the rate.
	IOPS     float64
	BurstOps float64
	// BestEffort marks the tenant as sheddable: the admission controller
	// defers its commands first when an SLO tenant misses its target.
	BestEffort bool
	// SLOTargetP99 is the per-window p99 latency target (0 = no SLO).
	// Only non-best-effort tenants' targets drive admission control.
	SLOTargetP99 sim.Duration
}

// Config tunes the arbiter.
type Config struct {
	// Window is the SLO evaluation and rate-gauge window (<= 0: 1ms).
	Window sim.Duration
}

// The arbiter's tuning.
const (
	// bytesPerUnit is the payload size of one virtual service unit; a
	// command costs max(1, bytes/bytesPerUnit) units before the class
	// multiplier.
	bytesPerUnit = 4096
	// sloWindow is the default SLO evaluation and rate-gauge window.
	sloWindow = sim.Millisecond
	// recoverWindows is how many consecutive windows with every SLO met
	// must pass before shed best-effort tenants are re-admitted.
	recoverWindows = 2
	// rateAlpha is the EWMA smoothing factor for the rate gauges.
	rateAlpha = 0.5
)

// classCost holds the per-class service cost multipliers.
var classCost = [NumClasses]float64{1, 0.5, 2, 8}

// DefaultClassCost returns the service-cost multiplier of a class.
// Background subsystems (e.g. the scrubber) use it to charge their own
// token buckets consistently with the arbiter's view of scavenger work.
func DefaultClassCost(c Class) float64 {
	if int(c) < len(classCost) {
		return classCost[c]
	}
	return 1
}

// Tenant is one VM's scheduling state inside the arbiter.
type Tenant struct {
	name   string
	cfg    TenantConfig
	weight float64

	finish float64 // virtual finish tag of the last served unit
	shed   bool    // deferred by the admission controller

	ops *Bucket

	rateOps   *metrics.Rate
	rateBytes *metrics.Rate

	lat    *metrics.Histogram // cumulative
	winLat *metrics.Histogram // current SLO window
	winEnd sim.Time
	met    uint64 // windows with p99 <= target
	missed uint64 // windows with p99 > target

	// Counters (also exported via Collect for determinism fingerprints).
	Admitted  uint64 // commands granted entry by the arbiter
	Throttled uint64 // admission attempts deferred by a token bucket
	Deferred  uint64 // admission attempts deferred while shed
	PerClass  [NumClasses]uint64
}

// Name returns the tenant identifier.
func (t *Tenant) Name() string { return t.name }
