package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 32; i++ {
		h.Record(i)
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got < 15 || got > 16 {
		t.Fatalf("median %d", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 100000)
	for i := range vals {
		// Mixture resembling latency: base + heavy tail.
		v := int64(50000 + rng.ExpFloat64()*20000)
		if rng.Intn(100) == 0 {
			v *= 5
		}
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("q=%v: got %d exact %d (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestHistogramMergeMatchesCombined(t *testing.T) {
	a, b, c := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		c.Record(v)
	}
	a.Merge(b)
	if a.Count() != c.Count() || a.Quantile(0.99) != c.Quantile(0.99) || a.Min() != c.Min() || a.Max() != c.Max() {
		t.Fatalf("merge mismatch: %v vs %v", a, c)
	}
}

func TestHistogramEqual(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	if !a.Equal(b) {
		t.Fatal("empty histograms must be equal")
	}
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 24))
	}
	for _, v := range vals {
		a.Record(v)
		b.Record(v)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("same recordings not equal: %v vs %v", a, b)
	}
	b.Record(vals[0])
	if a.Equal(b) {
		t.Fatal("different totals reported equal")
	}
	// Same count and sum but different value placement must still differ.
	c, d := NewHistogram(), NewHistogram()
	c.Record(1 << 20)
	c.Record(3 << 20)
	d.Record(2 << 20)
	d.Record(2 << 20)
	if c.Equal(d) {
		t.Fatal("different distributions reported equal")
	}
}

func TestHistogramMergeEqualsInterleaved(t *testing.T) {
	// Merging per-shard histograms must be bit-identical to recording the
	// same observations into one histogram — the property the cache's
	// per-shard reuse aggregation depends on.
	a, b, c := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		v := int64(rng.Intn(1 << 30))
		if i%3 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		c.Record(v)
	}
	a.Merge(b)
	if !a.Equal(c) {
		t.Fatalf("merged %v != combined %v", a, c)
	}
	// Merging an empty histogram is a no-op.
	a.Merge(NewHistogram())
	if !a.Equal(c) {
		t.Fatal("merging an empty histogram changed contents")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset failed")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("record after reset broken")
	}
}

// TestHistogramResetLeavesNothingBehind: Reset clears only the bucket range
// the recorded (or merged) values span, and nothing at all when empty; what
// it leaves must be indistinguishable from a new histogram.
func TestHistogramResetLeavesNothingBehind(t *testing.T) {
	fresh := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	for round := 0; round < 200; round++ {
		switch round % 4 {
		case 0: // nothing recorded since the last Reset
		case 1: // negative values are recorded as zero
			h.Record(-5)
			h.Record(math.MaxInt64)
		case 2: // buckets filled by a merge
			o := NewHistogram()
			for i := rng.Intn(50); i >= 0; i-- {
				o.Record(rng.Int63n(1 << uint(1+rng.Intn(62))))
			}
			h.Merge(o)
		default:
			for i := rng.Intn(50); i >= 0; i-- {
				h.Record(rng.Int63n(1 << uint(1+rng.Intn(40))))
			}
		}
		h.Reset()
		if !h.Equal(fresh) {
			t.Fatalf("round %d: a reset histogram differs from a new one: %v", round, h)
		}
	}
}

// TestHistogramFootprint: a histogram holds counts only for the magnitude
// groups its values span. Latencies from 1 µs to 1 ms take eleven groups,
// 2.75 KiB, where a dense table of every magnitude takes 16 KiB; an empty
// histogram holds none, and Reset and re-recording the same span add none.
func TestHistogramFootprint(t *testing.T) {
	h := NewHistogram()
	if cap(h.counts) != 0 {
		t.Fatalf("an empty histogram holds %d counts", cap(h.counts))
	}
	rng := rand.New(rand.NewSource(9))
	record := func() {
		h.Record(1000)
		h.Record(1000000)
		for i := 0; i < 10000; i++ {
			h.Record(1000 + rng.Int63n(999001))
		}
	}
	record()
	if got := cap(h.counts) * 8; got > 3<<10 {
		t.Errorf("1 µs..1 ms values hold %d bytes of counts, want <= 3 KiB", got)
	}
	span := cap(h.counts)
	h.Reset()
	record()
	if cap(h.counts) != span {
		t.Errorf("re-recording the span after Reset grew it from %d to %d counts", span, cap(h.counts))
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(1000 + rng.Int63n(999001)) }); n != 0 {
		t.Errorf("recording inside the span allocates %v objects", n)
	}
}

// Property: bucketMid(bucketIndex(v)) is within 1/32 relative error of v,
// and bucket indexing is monotonic.
func TestBucketRoundTripProperty(t *testing.T) {
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		v %= 1 << 50
		i := bucketIndex(v)
		mid := bucketMid(i)
		if v < subBuckets {
			return mid == v
		}
		lo := v - v/subBuckets - 1
		hi := v + v/subBuckets + 1
		return mid >= lo && mid <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMonotonicProperty(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		a %= 1 << 50
		b %= 1 << 50
		if a > b {
			a, b = b, a
		}
		return bucketIndex(a) <= bucketIndex(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryRates(t *testing.T) {
	s := Summary{Ops: 50000, Bytes: 50000 * 4096, WindowSec: 0.5}
	if got := s.KIOPS(); got != 100 {
		t.Fatalf("kiops %f", got)
	}
	if got := s.MBps(); got < 409 || got > 410 {
		t.Fatalf("MBps %f", got)
	}
}

func TestCounterSince(t *testing.T) {
	var c Counter
	c.Add(10)
	snap := c.Value()
	c.Inc()
	c.Add(4)
	if c.Value()-snap != 5 {
		t.Fatalf("since %d", c.Value()-snap)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i&0xfffff) + 50000)
	}
}

// Merge folds o into r (used when aggregating per-worker gauges): window
// counts and totals add, and the EWMA combines weighted by completed
// windows so merging a fresh gauge is a no-op. Both gauges must share the
// same geometry.
func (r *Rate) Merge(o *Rate) {
	if r.window != o.window || r.alpha != o.alpha {
		panic("metrics: merging rates with different geometry")
	}
	if o.windows > 0 {
		w := float64(o.windows) / float64(r.windows+o.windows)
		r.ewma = r.ewma*(1-w) + o.ewma*w
		r.windows += o.windows
	}
	r.winCount += o.winCount
	r.total += o.total
	if o.winStart > r.winStart {
		r.winStart = o.winStart
	}
}

// Equal reports whether both gauges hold bit-identical state — the rate
// counterpart of CounterSet.Equal for same-seed determinism checks.
func (r *Rate) Equal(o *Rate) bool {
	return r.window == o.window && r.alpha == o.alpha &&
		r.winStart == o.winStart && r.winCount == o.winCount &&
		r.ewma == o.ewma && r.windows == o.windows && r.total == o.total
}
