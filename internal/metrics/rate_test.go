package metrics

import (
	"math"
	"testing"
)

func TestRateSteadyState(t *testing.T) {
	r := NewRate(1e6, 0.5) // 1 ms windows
	// 100 events per window for 50 windows -> 100k events/s.
	for w := int64(0); w < 50; w++ {
		for i := 0; i < 100; i++ {
			r.Observe(1, w*1e6+int64(i)*1e4)
		}
	}
	got := r.PerSec(50 * 1e6)
	if math.Abs(got-1e5) > 1e3 {
		t.Fatalf("steady-state rate = %.0f, want ~100000", got)
	}
	if r.total != 5000 {
		t.Fatalf("total = %.0f, want 5000", r.total)
	}
}

func TestRateDecaysWhenIdle(t *testing.T) {
	r := NewRate(1e6, 0.5)
	for i := 0; i < 1000; i++ {
		r.Observe(1, int64(i)*1e3)
	}
	busy := r.PerSec(1e6)
	idle := r.PerSec(20 * 1e6) // 19 empty windows later
	if idle >= busy/100 {
		t.Fatalf("rate did not decay: busy=%.0f idle=%.0f", busy, idle)
	}
}

func TestRateLongIdleGapClosedForm(t *testing.T) {
	r := NewRate(1e6, 0.5)
	r.Observe(100, 0)
	// One busy window then k-1 empty windows: ewma must equal the closed
	// form alpha*count*(1-alpha)^(k-1), including across an hour-long gap
	// (3.6M skipped 1ms windows) that must not iterate per window.
	r.Observe(0, 10*1e6) // roll 10 windows
	want := 0.5 * 100 * math.Pow(0.5, 9)
	if got := r.ewma; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ewma after 10 windows = %v, want %v", got, want)
	}
	if got := r.PerSec(3600 * 1e9); got != 0 {
		// 0.5^3.6M underflows to exactly 0; the call must also return
		// promptly (the old per-window loop took millions of iterations).
		t.Fatalf("rate after 1h idle = %v, want 0", got)
	}
}

func TestRateLeadingIdleDoesNotSkew(t *testing.T) {
	r := NewRate(1e6, 0.5)
	// First observation far from t=0: the empty leading windows must not
	// drag the average toward zero.
	for i := 0; i < 100; i++ {
		r.Observe(1, 500*1e6+int64(i)*1e4)
	}
	got := r.PerSec(501 * 1e6)
	if got < 4e4 {
		t.Fatalf("leading idle skewed rate: %.0f", got)
	}
}

func TestRateMergeAndEqual(t *testing.T) {
	a, b := NewRate(1e6, 0.5), NewRate(1e6, 0.5)
	c := NewRate(1e6, 0.5)
	for w := int64(0); w < 10; w++ {
		a.Observe(10, w*1e6)
		c.Observe(10, w*1e6)
	}
	if !a.Equal(c) {
		t.Fatal("identical observation sequences not Equal")
	}
	if a.Equal(b) {
		t.Fatal("fresh gauge equals populated gauge")
	}
	// Merging a fresh gauge is a no-op on the smoothed value.
	before := a.PerSec(10 * 1e6)
	a.Merge(b)
	if after := a.PerSec(10 * 1e6); after != before {
		t.Fatalf("merging fresh gauge changed rate: %v -> %v", before, after)
	}
	// Merging two equally-loaded gauges keeps the per-gauge rate and adds
	// totals.
	d := NewRate(1e6, 0.5)
	for w := int64(0); w < 10; w++ {
		d.Observe(10, w*1e6)
	}
	a.Merge(d)
	if a.total != c.total+d.total {
		t.Fatalf("merge total = %.0f", a.total)
	}
	got, want := a.PerSec(10*1e6), c.PerSec(10*1e6)
	if math.Abs(got-want) > want/10 {
		t.Fatalf("merged rate %.0f, want ~%.0f", got, want)
	}
}

func TestRateGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched geometry merge did not panic")
		}
	}()
	NewRate(1e6, 0.5).Merge(NewRate(2e6, 0.5))
}
