package qos

import "nvmetro/internal/sim"

// Bucket is a token bucket with continuous refill: rate tokens per second
// accumulate up to burst, and Take consumes whole token amounts. A zero
// rate disables the bucket (Take always succeeds). Buckets gate admission
// only — a failed Take leaves the command queued in its shadowed SQ
// (backpressure), it is never dropped.
type Bucket struct {
	rate   float64 // tokens per second (0 = unlimited)
	burst  float64 // capacity
	tokens float64
	last   sim.Time
}

// NewBucket creates a bucket that starts full.
func NewBucket(rate, burst float64) *Bucket {
	if burst <= 0 {
		burst = rate // default burst: one second of rate
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// limited reports whether the bucket enforces a rate.
func (b *Bucket) limited() bool { return b != nil && b.rate > 0 }

// refill accrues tokens for the time elapsed since the last refill.
func (b *Bucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += b.rate * now.Sub(b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// need clamps a charge to the bucket's capacity for admission checks: a
// charge above burst can never accumulate, so such a command is
// admissible whenever the bucket is full. Take still debits the full
// amount, driving the balance negative; the deficit is repaid at the
// refill rate, so oversized commands are paced at the contracted rate
// instead of stalling forever (backpressure stays lossless and live).
func (b *Bucket) need(n float64) float64 {
	if n > b.burst {
		return b.burst
	}
	return n
}

// has reports whether n tokens are available at now without consuming.
func (b *Bucket) has(n float64, now sim.Time) bool {
	if !b.limited() {
		return true
	}
	b.refill(now)
	return b.tokens >= b.need(n)
}

// Take consumes n tokens, reporting false (and consuming nothing) when
// fewer than the capacity-clamped charge are available. A granted
// oversized charge leaves the balance negative (see need).
func (b *Bucket) Take(n float64, now sim.Time) bool {
	if !b.limited() {
		return true
	}
	b.refill(now)
	if b.tokens < b.need(n) {
		return false
	}
	b.tokens -= n
	return true
}

// WaitTime returns how long the caller must wait before n tokens will be
// available at the refill rate (0 when Take would already succeed). It
// lets paced background work sleep analytically instead of polling.
func (b *Bucket) WaitTime(n float64, now sim.Time) sim.Duration {
	if !b.limited() {
		return 0
	}
	b.refill(now)
	deficit := b.need(n) - b.tokens
	if deficit <= 0 {
		return 0
	}
	// Round up: a truncated wait would let the caller retry before the
	// deficit is repaid (a Sleep(0) spin at high rates).
	d := sim.Duration(deficit / b.rate * 1e9)
	if float64(d)*b.rate < deficit*1e9 {
		d++
	}
	return d
}

// level returns the current fill fraction in [0, 1] (1 for unlimited
// buckets — an unenforced bucket is never the bottleneck; 0 while a
// deficit from an oversized charge is being repaid).
func (b *Bucket) level(now sim.Time) float64 {
	if !b.limited() || b.burst <= 0 {
		return 1
	}
	b.refill(now)
	if b.tokens <= 0 {
		return 0
	}
	return b.tokens / b.burst
}
