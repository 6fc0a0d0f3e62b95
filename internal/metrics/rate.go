package metrics

import (
	"fmt"
	"math"
)

// Rate is a windowed EWMA rate gauge: events are accumulated into fixed
// windows of the configured width, and at every window rollover the
// finished window's rate is folded into an exponentially weighted moving
// average. Like the rest of the package it is unit-agnostic (callers
// record nanosecond timestamps and per-second rates fall out of the
// window width); updates are O(1) and allocation-free, and the value is
// fully determined by the observation sequence, so same-seed runs produce
// bit-identical gauges (see Equal).
type Rate struct {
	window int64   // window width (ns)
	alpha  float64 // EWMA smoothing factor per window

	winStart int64   // start of the current window
	winCount float64 // events accumulated in the current window
	ewma     float64 // events per window, smoothed
	windows  uint64  // completed windows folded so far
	total    float64 // lifetime event count
}

// NewRate creates a rate gauge with the given window width in nanoseconds
// and smoothing factor alpha in (0, 1]; alpha = 1 tracks only the last
// completed window.
func NewRate(windowNs int64, alpha float64) *Rate {
	if windowNs <= 0 {
		panic("metrics: rate window must be positive")
	}
	if alpha <= 0 || alpha > 1 {
		panic("metrics: rate alpha must be in (0, 1]")
	}
	return &Rate{window: windowNs, alpha: alpha}
}

// roll folds completed windows up to now into the EWMA.
func (r *Rate) roll(now int64) {
	if r.windows == 0 && r.winCount == 0 && r.ewma == 0 {
		// Never observed anything: snap the window origin forward so
		// leading idle time costs nothing and skews nothing.
		if behind := (now - r.winStart) / r.window; behind > 0 {
			r.winStart += behind * r.window
		}
		return
	}
	k := (now - r.winStart) / r.window
	if k <= 0 {
		return
	}
	// Fold the current window, then apply the decay of the remaining k-1
	// empty windows in closed form — a long idle gap must not cost one
	// loop turn per elapsed window on the caller's hot path.
	r.ewma = r.alpha*r.winCount + (1-r.alpha)*r.ewma
	if k > 1 {
		r.ewma *= math.Pow(1-r.alpha, float64(k-1))
	}
	r.winCount = 0
	r.windows += uint64(k)
	r.winStart += k * r.window
}

// Observe records n events at time now (nanoseconds, monotonic).
func (r *Rate) Observe(n float64, now int64) {
	r.roll(now)
	r.winCount += n
	r.total += n
}

// PerSec returns the smoothed rate in events per second as of now.
func (r *Rate) PerSec(now int64) float64 {
	r.roll(now)
	return r.ewma * 1e9 / float64(r.window)
}

func (r *Rate) String() string {
	return fmt.Sprintf("rate{win=%dns ewma=%.3f/win n=%.0f}", r.window, r.ewma, r.total)
}
