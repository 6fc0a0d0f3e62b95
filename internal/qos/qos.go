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
// observation sequence. Each command is charged once, at admission, in
// payload-proportional service units; the classifier that runs after
// admission picks only the command's I/O path.
package qos

import (
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

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
	// command costs max(1, bytes/bytesPerUnit) units.
	bytesPerUnit = 4096
	// sloWindow is the default SLO evaluation and rate-gauge window.
	sloWindow = sim.Millisecond
	// recoverWindows is how many consecutive windows with every SLO met
	// must pass before shed best-effort tenants are re-admitted.
	recoverWindows = 2
	// rateAlpha is the EWMA smoothing factor for the rate gauge.
	rateAlpha = 0.5
)

// Tenant is one VM's scheduling state inside the arbiter.
type Tenant struct {
	name   string
	cfg    TenantConfig
	weight float64

	finish float64 // virtual finish tag of the last served unit
	shed   bool    // deferred by the admission controller

	ops *Bucket

	rateOps *metrics.Rate

	lat    *metrics.Histogram // cumulative
	winLat *metrics.Histogram // current SLO window
	winEnd sim.Time
	met    uint64 // windows with p99 <= target
	missed uint64 // windows with p99 > target

	// Counters (also exported via Collect for determinism fingerprints).
	Admitted  uint64 // commands granted entry by the arbiter
	Throttled uint64 // admission attempts deferred by a token bucket
	Deferred  uint64 // admission attempts deferred while shed
}
