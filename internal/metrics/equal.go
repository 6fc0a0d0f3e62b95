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
// CounterSet.Equal for same-seed determinism checks.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.total != o.total || h.sum != o.sum || h.min != o.min || h.max != o.max {
		return false
	}
	if len(h.counts) != len(o.counts) {
		return false
	}
	for i, c := range h.counts {
		if o.counts[i] != c {
			return false
		}
	}
	return true
}
