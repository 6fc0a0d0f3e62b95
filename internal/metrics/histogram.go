// Package metrics provides the measurement primitives used by the benchmark
// harness: HDR-style log-linear latency histograms, counters and simple
// summaries. Values are int64 and unit-agnostic (the harness records
// nanoseconds).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// subBuckets is the number of linear sub-buckets per power-of-two bucket.
// 32 sub-buckets bound the relative quantile error to about 3%.
const subBuckets = 32

// Histogram is a log-linear histogram of non-negative int64 values, in the
// spirit of HdrHistogram: values are grouped into power-of-two magnitude
// buckets, each split into linear sub-buckets. Recording is O(1) and
// allocation-free after construction.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram covering [0, 2^62].
func NewHistogram() *Histogram {
	return &Histogram{
		// 63 magnitude groups x subBuckets is more than enough for ns values.
		counts: make([]uint64, 64*subBuckets),
		min:    math.MaxInt64,
	}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Magnitude = position of the highest set bit above the sub-bucket range.
	mag := bits.Len64(uint64(v)) - 1 // >= 5 here
	shift := mag - 5                 // 2^5 == subBuckets
	sub := int(v>>uint(shift)) - subBuckets
	return (shift+1)*subBuckets + sub
}

// bucketMid returns a representative value for bucket index i (upper edge).
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	return int64(sub+subBuckets) << uint(shift)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
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

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the value at quantile q in [0,1], e.g. 0.99 for p99.
// The result is accurate to the bucket resolution (~3% relative error).
func (h *Histogram) Quantile(q float64) int64 {
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

// Median is Quantile(0.5).
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// P99 is Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Merge adds all observations of o into h.
func (h *Histogram) Merge(o *Histogram) {
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

// Reset clears the histogram. Only the buckets between the smallest and the
// largest recorded value can be non-zero (bucketIndex is monotonic), so a
// histogram nothing was recorded into costs nothing to reset and a narrow one
// little: the QoS arbiter resets one per tenant per SLO window.
func (h *Histogram) Reset() {
	if h.total == 0 {
		return
	}
	clear(h.counts[bucketIndex(h.min) : bucketIndex(h.max)+1])
	h.total, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.total, h.Mean(), h.Median(), h.P99(), h.max)
}
