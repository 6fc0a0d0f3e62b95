package sim

import "math/rand"

// Backoff returns the delay before retry number attempt (1-based): base
// doubled per prior attempt, clamped to limit (0 = uncapped), then spread by
// a ± fraction jitter in [0, 1). A positive delay with a positive jitter takes
// exactly one draw from rng; otherwise rng is not touched and may be nil.
func Backoff(base, limit Duration, attempt int, jitter float64, rng *rand.Rand) Duration {
	d := base
	for n := 1; n < attempt; n++ {
		d *= 2
		if limit > 0 && d >= limit {
			break
		}
	}
	if limit > 0 && d > limit {
		d = limit
	}
	if jitter > 0 && d > 0 {
		d = Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
	}
	return d
}
