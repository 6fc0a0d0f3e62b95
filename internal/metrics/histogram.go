// Package metrics provides the measurement primitives used by the benchmark
// harness: HDR-style log-linear latency histograms, counters and simple
// summaries. Values are int64 and unit-agnostic (the harness records
// nanoseconds).
//
// A histogram's footprint follows what it has recorded: counts exist only for
// the power-of-two magnitude groups between its smallest and largest value
// (256 bytes a group), so one of latencies between 1 µs and 1 ms holds 2.75
// KiB of counts and an empty one none, where a dense table of every magnitude
// would hold 16 KiB whatever it records.
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
// buckets, each split into linear sub-buckets. counts holds the buckets of
// whole magnitude groups from base on and grows to take in a value outside
// them, so recording is O(1) and allocation-free once the span covers what
// is recorded; Reset keeps the span.
type Histogram struct {
	counts []uint64 // buckets base, base+1, ...: whole magnitude groups
	base   int      // bucket index of counts[0], a multiple of subBuckets
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram covering [0, 2^63).
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
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

// cover grows counts, if it must, to span buckets lo through hi as well as
// those it spans already, rounded out to whole magnitude groups.
func (h *Histogram) cover(lo, hi int) {
	if len(h.counts) > 0 {
		if lo >= h.base && hi < h.base+len(h.counts) {
			return
		}
		lo, hi = min(lo, h.base), max(hi, h.base+len(h.counts)-1)
	}
	lo -= lo % subBuckets
	hi += subBuckets - 1 - hi%subBuckets
	counts := make([]uint64, hi-lo+1)
	copy(counts[max(h.base-lo, 0):], h.counts)
	h.counts, h.base = counts, lo
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if uint(i-h.base) >= uint(len(h.counts)) {
		h.cover(i, i)
	}
	h.counts[i-h.base]++
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
			v := bucketMid(h.base + i)
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

// span returns the bucket indices of the smallest and the largest recorded
// value: only the buckets between them can be non-zero (bucketIndex is
// monotonic). The histogram must not be empty.
func (h *Histogram) span() (lo, hi int) {
	return bucketIndex(h.min), bucketIndex(h.max)
}

// Merge adds all observations of o into h.
func (h *Histogram) Merge(o *Histogram) {
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		lo, hi := o.span()
		h.cover(lo, hi)
		for i, c := range o.counts[lo-o.base : hi-o.base+1] {
			h.counts[lo-h.base+i] += c
		}
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Reset clears the histogram, keeping the span of its counts. Only the
// buckets span returns can be non-zero, so a histogram nothing was recorded
// into costs nothing to reset and a narrow one little: the QoS arbiter resets
// one per tenant per SLO window.
func (h *Histogram) Reset() {
	if h.total == 0 {
		return
	}
	lo, hi := h.span()
	clear(h.counts[lo-h.base : hi-h.base+1])
	h.total, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.total, h.Mean(), h.Median(), h.P99(), h.max)
}
