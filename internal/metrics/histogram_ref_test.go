package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// refHistogram is the dense histogram Histogram replaced: every magnitude
// group's buckets allocated up front, 64 x subBuckets counts. It stays as the
// reference the sparse span must agree with, result for result.
type refHistogram struct {
	counts []uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

func newRefHistogram() *refHistogram {
	return &refHistogram{counts: make([]uint64, 64*subBuckets), min: math.MaxInt64}
}

func (h *refHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *refHistogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

func (h *refHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

func (h *refHistogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			v := bucketMid(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

func (h *refHistogram) Merge(o *refHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

func (h *refHistogram) Reset() {
	clear(h.counts)
	h.total, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

// matches reports the first result of h that differs from ref's, or "".
func (h *Histogram) matches(ref *refHistogram) string {
	switch {
	case h.Count() != ref.total:
		return "Count"
	case h.Min() != ref.Min():
		return "Min"
	case h.Max() != ref.max:
		return "Max"
	case h.Mean() != ref.Mean():
		return "Mean"
	}
	for q := 0.0; q <= 1.0001; q += 0.0125 {
		if h.Quantile(q) != ref.Quantile(q) {
			return "Quantile"
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if h.Quantile(q) != ref.Quantile(q) {
			return "Quantile"
		}
	}
	for i, c := range ref.counts {
		var got uint64
		if k := i - h.base; k >= 0 && k < len(h.counts) {
			got = h.counts[k]
		}
		if got != c {
			return "counts"
		}
	}
	return ""
}

// randValue draws a value of a random magnitude, zero and the extremes
// included, sometimes negative.
func randValue(rng *rand.Rand) int64 {
	switch rng.Intn(20) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return -rng.Int63n(1000)
	}
	return rng.Int63n(1 << uint(1+rng.Intn(62)))
}

// randNarrow draws from a band a few magnitudes wide at a random height, the
// shape a latency histogram records.
func randNarrow(rng *rand.Rand) func() int64 {
	lo := uint(rng.Intn(50))
	width := uint(1 + rng.Intn(4))
	return func() int64 { return int64(1)<<lo + rng.Int63n(int64(1)<<(lo+width)) }
}

// TestHistogramMatchesDenseReference drives the sparse histogram and the
// dense reference through the same records, merges of mixed spans (empty,
// narrow, full-range, disjoint), resets and reuse, and holds every result —
// and, through Equal, the bucket contents — to the reference's.
func TestHistogramMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for round := 0; round < 300; round++ {
		h, ref := NewHistogram(), newRefHistogram()
		twin := NewHistogram() // records what h does, merges never
		for step := 0; step < 12; step++ {
			switch rng.Intn(5) {
			case 0: // records across all magnitudes
				for i := rng.Intn(40); i > 0; i-- {
					v := randValue(rng)
					h.Record(v)
					ref.Record(v)
					twin.Record(v)
				}
			case 1: // records in a narrow band
				draw := randNarrow(rng)
				for i := rng.Intn(200); i > 0; i-- {
					v := draw()
					h.Record(v)
					ref.Record(v)
					twin.Record(v)
				}
			case 2: // merge of another span, possibly empty or reset
				o, oref := NewHistogram(), newRefHistogram()
				draw := randNarrow(rng)
				if rng.Intn(2) == 0 {
					draw = func() int64 { return randValue(rng) }
				}
				var vals []int64
				for i := rng.Intn(60); i > 0; i-- {
					v := draw()
					o.Record(v)
					oref.Record(v)
					vals = append(vals, v)
				}
				if rng.Intn(6) == 0 {
					o.Reset()
					oref.Reset()
					vals = nil
				}
				for _, v := range vals {
					twin.Record(v)
				}
				h.Merge(o)
				ref.Merge(oref)
			case 3:
				h.Reset()
				ref.Reset()
				twin.Reset()
			default: // nothing: results are read on an unchanged histogram
			}
			if what := h.matches(ref); what != "" {
				t.Fatalf("round %d step %d: %s differs from the dense reference: %v", round, step, what, h)
			}
			if !h.Equal(twin) || !twin.Equal(h) {
				t.Fatalf("round %d step %d: merged %v != recorded %v", round, step, h, twin)
			}
		}
		if h.Reset(); !h.Equal(NewHistogram()) {
			t.Fatalf("round %d: a reset histogram differs from a new one", round)
		}
	}
}
