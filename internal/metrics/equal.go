package metrics

// The equality checks of same-seed determinism tests.

// Equal reports whether both sets hold the same counters with the same
// values in the same order — the determinism check for same-seed runs.
func (s *CounterSet) Equal(other *CounterSet) bool {
	if len(s.names) != len(other.names) {
		return false
	}
	for i, n := range s.names {
		if other.names[i] != n || s.vals[n] != other.vals[n] {
			return false
		}
	}
	return true
}

// Equal reports whether h and o hold bit-identical contents (same counts in
// every bucket, same total/sum/min/max) — the histogram counterpart of
// CounterSet.Equal for same-seed determinism checks. The spans the two
// allocated do not matter: equal extremes bound the non-zero buckets alike.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.total != o.total || h.sum != o.sum || h.min != o.min || h.max != o.max {
		return false
	}
	if h.total == 0 {
		return true
	}
	lo, hi := h.span()
	for i := lo; i <= hi; i++ {
		if h.counts[i-h.base] != o.counts[i-o.base] {
			return false
		}
	}
	return true
}
