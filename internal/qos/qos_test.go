package qos

import (
	"math"
	"math/rand"
	"testing"

	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

func TestBucketRefillAndTake(t *testing.T) {
	b := NewBucket(1000, 100) // 1000/s, burst 100
	now := sim.Time(0)
	if !b.Take(100, now) {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take(1, now) {
		t.Fatal("empty bucket granted a token")
	}
	// 50 ms -> 50 tokens.
	now = sim.Time(50 * sim.Millisecond)
	if !b.Has(50, now) || b.Has(51, now) {
		t.Fatalf("refill wrong: level=%.2f", b.Level(now))
	}
	// Refill never exceeds burst.
	now = sim.Time(10 * sim.Second)
	if got := b.Level(now); got != 1 {
		t.Fatalf("level after long idle = %.2f, want 1", got)
	}
}

// TestBucketOversizedCharge checks that a charge larger than the bucket's
// capacity is admitted when the bucket is full and paced via a token
// deficit — not stalled forever (the burst can never cover it, so
// requiring tokens >= n would deadlock the tenant's queue head).
func TestBucketOversizedCharge(t *testing.T) {
	b := NewBucket(1000, 100) // 1000/s, burst 100
	now := sim.Time(0)
	if !b.Has(250, now) {
		t.Fatal("full bucket must admit an oversized charge")
	}
	if !b.Take(250, now) {
		t.Fatal("full bucket refused an oversized charge")
	}
	if b.Level(now) != 0 {
		t.Fatalf("level during deficit = %.2f, want 0", b.Level(now))
	}
	// The deficit is 150 tokens; the next 1-token command must wait until
	// it is repaid: 151 tokens accrue in 151 ms.
	if b.Take(1, sim.Time(150*sim.Millisecond)) {
		t.Fatal("deficit not enforced")
	}
	if !b.Take(1, sim.Time(151*sim.Millisecond)) {
		t.Fatal("token not granted after deficit repaid")
	}
	// Fractional capacity (IOPS < 10 with the default burst = rate/10):
	// every 1-op charge exceeds burst, yet admission proceeds at the rate.
	ops := NewBucket(5, 0.5)
	if !ops.Take(1, 0) {
		t.Fatal("fractional-burst bucket stalled on first op")
	}
	if ops.Take(1, sim.Time(100*sim.Millisecond)) {
		t.Fatal("fractional-burst bucket did not pace")
	}
	if !ops.Take(1, sim.Time(300*sim.Millisecond)) {
		t.Fatal("fractional-burst bucket stalled after refill")
	}
}

// TestArbiterOversizedCommandAdmits is the end-to-end regression for the
// stall: with the default burst (BytesPerSec/10), a single command whose
// payload exceeds a tenth of a second of the rate contract must still be
// admitted eventually, at the contracted rate.
func TestArbiterOversizedCommandAdmits(t *testing.T) {
	a := NewArbiter(Config{})
	ten := a.AddTenant("t", TenantConfig{BytesPerSec: 1 << 20}) // 1 MB/s, burst 128KB
	pending := []int{256 << 10}                                 // 256KB writes
	var admitted uint64
	for i := 0; i <= 1000; i++ { // 1s of sim time, 1ms steps
		if admitOne(a, pending, sim.Time(i*int(sim.Millisecond))) == 0 {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("oversized command never admitted: tenant stalled")
	}
	// 1 MB/s over 256KB commands = 4/s; allow the initial burst on top.
	if admitted > 6 {
		t.Fatalf("oversized commands admitted %d times in 1s, want ~4 (rate not enforced)", admitted)
	}
	if ten.Admitted != admitted {
		t.Fatalf("tenant admitted counter %d, want %d", ten.Admitted, admitted)
	}
}

func TestBucketUnlimited(t *testing.T) {
	var b *Bucket // nil bucket: unlimited
	if b.Limited() || !b.Take(1e9, 0) || !b.Has(1e9, 0) || b.Level(0) != 1 {
		t.Fatal("nil bucket must behave as unlimited")
	}
}

// admitOne runs one arbiter scan over tenants with the given pending
// payload sizes (0 = no backlog) and serves the winner, mirroring the
// router's gather loop. Returns the served index or -1.
func admitOne(a *Arbiter, pending []int, now sim.Time) int {
	best := -1
	for i, t := range a.Tenants() {
		if pending[i] == 0 || !a.Eligible(t, pending[i], now) {
			continue
		}
		if best == -1 || a.Before(t, a.Tenants()[best]) {
			best = i
		}
	}
	if best >= 0 {
		a.Serve(a.Tenants()[best], pending[best], now)
	}
	return best
}

// TestWFQFairnessProperty is the model-based fairness check: with every
// tenant continuously backlogged, the service each receives over any
// window of W consecutive grants stays within epsilon of its weight
// share, for randomized weights and payload sizes (fixed seed).
func TestWFQFairnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := NewArbiter(Config{})
		weights := make([]float64, n)
		var wsum float64
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(8))
			wsum += weights[i]
			a.AddTenant("t", TenantConfig{Weight: weights[i]})
		}
		size := 4096 << rng.Intn(3) // uniform per trial: 4k/8k/16k
		pending := make([]int, n)
		for i := range pending {
			pending[i] = size
		}
		const grants = 4000
		const window = 500
		served := make([][]int, 0, grants)
		counts := make([]int, n)
		for g := 0; g < grants; g++ {
			i := admitOne(a, pending, 0)
			if i < 0 {
				t.Fatal("no tenant admitted while all backlogged")
			}
			counts[i]++
			row := make([]int, n)
			row[i] = 1
			served = append(served, row)
		}
		// Sliding-window service share vs weight share.
		win := make([]int, n)
		for g := 0; g < grants; g++ {
			for i := range win {
				win[i] += served[g][i]
			}
			if g >= window {
				for i := range win {
					win[i] -= served[g-window][i]
				}
			}
			if g < window-1 {
				continue
			}
			for i := range win {
				share := float64(win[i]) / window
				want := weights[i] / wsum
				// epsilon: one command granularity per tenant per window
				// plus 5% slack.
				eps := 0.05 + float64(n)/window
				if math.Abs(share-want) > eps {
					t.Fatalf("trial %d grant %d tenant %d: share %.3f, want %.3f±%.3f (weights %v)",
						trial, g, i, share, want, eps, weights)
				}
			}
		}
		for i, c := range counts {
			t.Logf("trial %d tenant %d: weight %.0f served %d", trial, i, weights[i], c)
		}
	}
}

// TestWFQLateJoiner checks a tenant joining mid-run gets its share going
// forward but no catch-up credit for its absence.
func TestWFQLateJoiner(t *testing.T) {
	a := NewArbiter(Config{})
	a.AddTenant("a", TenantConfig{Weight: 1})
	pending := []int{4096}
	for g := 0; g < 1000; g++ {
		admitOne(a, pending, 0)
	}
	b := a.AddTenant("b", TenantConfig{Weight: 1})
	pending = []int{4096, 4096}
	for g := 0; g < 1000; g++ {
		admitOne(a, pending, 0)
	}
	// b should have roughly half of the second phase, not three quarters
	// of everything.
	if b.Admitted < 400 || b.Admitted > 600 {
		t.Fatalf("late joiner served %d of 1000, want ~500", b.Admitted)
	}
}

func TestTokenBucketBackpressure(t *testing.T) {
	a := NewArbiter(Config{})
	lim := a.AddTenant("lim", TenantConfig{IOPS: 1000, BurstOps: 1})
	free := a.AddTenant("free", TenantConfig{})
	pending := []int{512, 512}
	// 10k admission rounds over 10ms of sim time: the limited tenant can
	// admit at most burst + rate*t = 1 + 10 commands; the free tenant
	// absorbs the rest.
	for i := 0; i < 10000; i++ {
		now := sim.Time(i * 1000) // 1us per round
		admitOne(a, pending, now)
	}
	if lim.Admitted > 12 {
		t.Fatalf("limited tenant admitted %d, want <= 12", lim.Admitted)
	}
	if lim.Throttled == 0 {
		t.Fatal("throttle counter never incremented")
	}
	if free.Admitted < 9000 {
		t.Fatalf("free tenant admitted %d, want the remainder", free.Admitted)
	}
}

// TestAdmissibleDoesNotCount checks the rescan variant of Eligible leaves
// the backpressure counters untouched, so a deferred command counts once
// per poll round rather than once per scan attempt.
func TestAdmissibleDoesNotCount(t *testing.T) {
	a := NewArbiter(Config{})
	lim := a.AddTenant("lim", TenantConfig{IOPS: 1, BurstOps: 1})
	if !a.Eligible(lim, 512, 0) {
		t.Fatal("fresh tenant not eligible")
	}
	a.Serve(lim, 512, 0) // drains the single-token bucket
	for i := 0; i < 7; i++ {
		if a.Admissible(lim, 512, 0) {
			t.Fatal("drained bucket reported admissible")
		}
	}
	if lim.Throttled != 0 {
		t.Fatalf("Admissible touched counters: throttled=%d", lim.Throttled)
	}
	if a.Eligible(lim, 512, 0) || lim.Throttled != 1 {
		t.Fatalf("Eligible must count exactly once: throttled=%d", lim.Throttled)
	}
}

func TestClassChargeShiftsShare(t *testing.T) {
	// Two equal-weight tenants; one's commands are tagged scavenger after
	// admission. Its effective share must drop by the class multiplier.
	a := NewArbiter(Config{})
	norm := a.AddTenant("norm", TenantConfig{Weight: 1})
	scav := a.AddTenant("scav", TenantConfig{Weight: 1})
	pending := []int{4096, 4096}
	for g := 0; g < 3000; g++ {
		i := admitOne(a, pending, 0)
		if a.Tenants()[i] == scav {
			a.ChargeClass(scav, 1, ClassScavenger)
		} else {
			a.ChargeClass(norm, 1, ClassDefault)
		}
	}
	// Scavenger multiplier is 8: expect roughly a 1:8 split.
	ratio := float64(norm.Admitted) / float64(scav.Admitted)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("norm:scav = %d:%d (ratio %.1f), want ~8", norm.Admitted, scav.Admitted, ratio)
	}
	if scav.PerClass[ClassScavenger] != scav.Admitted {
		t.Fatal("per-class counter mismatch")
	}
}

func TestAdmissionControllerShedsAndRecovers(t *testing.T) {
	cfg := Config{Window: sim.Millisecond, RecoverWindows: 2}
	a := NewArbiter(cfg)
	slo := a.AddTenant("slo", TenantConfig{SLOTargetP99: 100 * sim.Microsecond})
	be := a.AddTenant("be", TenantConfig{BestEffort: true})

	now := sim.Time(0)
	a.Tick(now) // arms windows
	// Window 1: SLO tenant misses badly.
	for i := 0; i < 100; i++ {
		a.ObserveLatency(slo, 5*sim.Millisecond)
	}
	now += sim.Time(sim.Millisecond)
	a.Tick(now)
	if !be.Shed() || !a.Overloaded() {
		t.Fatal("best-effort tenant not shed after SLO miss")
	}
	if slo.Shed() {
		t.Fatal("SLO tenant must never be shed")
	}
	// Shed tenants are ineligible and count deferrals.
	if a.Eligible(be, 512, now) {
		t.Fatal("shed tenant still eligible")
	}
	if be.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", be.Deferred)
	}
	// Two clean windows: restored.
	for w := 0; w < 2; w++ {
		for i := 0; i < 100; i++ {
			a.ObserveLatency(slo, 10*sim.Microsecond)
		}
		now += sim.Time(sim.Millisecond)
		a.Tick(now)
	}
	if be.Shed() || a.Overloaded() {
		t.Fatal("best-effort tenant not restored after clean windows")
	}
	if a.Sheds != 1 || a.Restores != 1 {
		t.Fatalf("sheds=%d restores=%d, want 1/1", a.Sheds, a.Restores)
	}
}

func TestSnapshotAndCollect(t *testing.T) {
	a := NewArbiter(Config{})
	v := a.AddTenant("v", TenantConfig{Weight: 3, IOPS: 1000, SLOTargetP99: sim.Millisecond})
	a.AddTenant("b", TenantConfig{BestEffort: true})
	a.Serve(v, 8192, 0)
	a.ChargeClass(v, 2, ClassLatency)
	a.ObserveLatency(v, 50*sim.Microsecond)

	snaps := a.Snapshot(0)
	if len(snaps) != 2 || snaps[0].Name != "v" || snaps[1].Name != "b" {
		t.Fatalf("snapshot order wrong: %+v", snaps)
	}
	s := snaps[0]
	if s.Weight != 3 || s.Admitted != 1 || s.PerClass[ClassLatency] != 1 {
		t.Fatalf("snapshot fields wrong: %+v", s)
	}
	if s.OpsLevel >= 1 {
		t.Fatalf("ops bucket should have drained: %.3f", s.OpsLevel)
	}
	if s.Attainment() != 1 {
		t.Fatalf("attainment with no windows = %.2f, want 1", s.Attainment())
	}

	cs := &metrics.CounterSet{}
	a.Collect(cs)
	if cs.Get("qos_v_admitted") != 1 || cs.Get("qos_v_class_latency") != 1 {
		t.Fatalf("collect wrong: %v", cs)
	}
	// Determinism: an identical arbiter collects an equal set.
	a2 := NewArbiter(Config{})
	v2 := a2.AddTenant("v", TenantConfig{Weight: 3, IOPS: 1000, SLOTargetP99: sim.Millisecond})
	a2.AddTenant("b", TenantConfig{BestEffort: true})
	a2.Serve(v2, 8192, 0)
	a2.ChargeClass(v2, 2, ClassLatency)
	cs2 := &metrics.CounterSet{}
	a2.Collect(cs2)
	if !cs.Equal(cs2) {
		t.Fatalf("same-sequence collects differ:\n%v\n%v", cs, cs2)
	}
}

// BenchmarkArbiterAdmit measures the uncontended hot path the router pays
// per admitted command: one Eligible check plus one Serve on a single
// unlimited tenant. The tentpole budget is ~50 ns/op.
func BenchmarkArbiterAdmit(b *testing.B) {
	a := NewArbiter(Config{})
	t := a.AddTenant("t", TenantConfig{Weight: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a.Eligible(t, 4096, sim.Time(i)) {
			a.Serve(t, 4096, sim.Time(i))
		}
	}
}

// BenchmarkArbiterScan8 measures a full arbitration round over 8
// backlogged tenants with token buckets attached.
func BenchmarkArbiterScan8(b *testing.B) {
	a := NewArbiter(Config{})
	pending := make([]int, 8)
	for i := range pending {
		a.AddTenant("t", TenantConfig{Weight: float64(1 + i), IOPS: 1e9})
		pending[i] = 4096
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		admitOne(a, pending, sim.Time(i))
	}
}

// TestNextWindowEndBoundsTickSkipping drives two identical arbiters with the
// same random latency observations. One is ticked on every 250 ns poll round;
// the other skips the rounds in between, but never across NextWindowEnd —
// what an idle-round-eliding worker does. Tick evaluates the admission
// controller once per call however many windows it rolls, so only that bound
// keeps the two controllers (clean-run count, sheds, restores, per-tenant
// window tallies) in step. NextWindowEnd is a minimum Tick keeps; it must be
// the scan of every tenant's window, a tenant joining late included.
func TestNextWindowEndBoundsTickSkipping(t *testing.T) {
	const round = 250
	build := func() (*Arbiter, []*Tenant) {
		a := NewArbiter(Config{Window: 20 * sim.Microsecond, RecoverWindows: 3})
		return a, []*Tenant{
			a.AddTenant("slo", TenantConfig{SLOTargetP99: 50 * sim.Microsecond}),
			a.AddTenant("be", TenantConfig{BestEffort: true}),
			a.AddTenant("plain", TenantConfig{}),
		}
	}
	ref, refT := build()
	got, gotT := build()
	if got.NextWindowEnd() != 0 {
		t.Fatal("a tenant without a window yet must hold the caller to the next round")
	}
	rng := rand.New(rand.NewSource(3))
	var refNow, gotNow sim.Time
	for step := 0; step < 4000; step++ {
		if step == 2000 {
			refT = append(refT, ref.AddTenant("late", TenantConfig{SLOTargetP99: 60 * sim.Microsecond}))
			gotT = append(gotT, got.AddTenant("late", TenantConfig{SLOTargetP99: 60 * sim.Microsecond}))
			if got.NextWindowEnd() != 0 {
				t.Fatal("a tenant added late must hold the caller to the next round")
			}
		}
		// An event some rounds ahead: a completion with a random latency.
		event := gotNow + sim.Time(rng.Intn(300)+1)*round
		lat := sim.Duration(rng.Intn(90)+1) * sim.Microsecond
		for refNow < event {
			ref.Tick(refNow)
			refNow += round
		}
		for gotNow < event {
			got.Tick(gotNow)
			scan := sim.Never
			for _, tn := range got.tenants {
				scan = min(scan, tn.winEnd)
			}
			if got.NextWindowEnd() != scan {
				t.Fatalf("step %d: NextWindowEnd %v, the tenants' earliest window end is %v", step, got.NextWindowEnd(), scan)
			}
			// Skip to the last round boundary strictly before the bound.
			h := min(event, got.NextWindowEnd())
			gotNow += max(1, (h-1-gotNow)/round) * round
		}
		ref.ObserveLatency(refT[0], lat)
		got.ObserveLatency(gotT[0], lat)
		if ref.cleanRuns != got.cleanRuns || ref.overloaded != got.overloaded ||
			ref.Sheds != got.Sheds || ref.Restores != got.Restores {
			t.Fatalf("step %d: controller diverged: per-round clean=%d over=%v sheds=%d restores=%d, skipping clean=%d over=%v sheds=%d restores=%d",
				step, ref.cleanRuns, ref.overloaded, ref.Sheds, ref.Restores, got.cleanRuns, got.overloaded, got.Sheds, got.Restores)
		}
		for i := range refT {
			if refT[i].met != gotT[i].met || refT[i].missed != gotT[i].missed || refT[i].winEnd != gotT[i].winEnd {
				t.Fatalf("step %d tenant %d: windows diverged", step, i)
			}
		}
	}
	if ref.Sheds == 0 || ref.Restores == 0 {
		t.Fatalf("scenario never shed (%d) or restored (%d): nothing was tested", ref.Sheds, ref.Restores)
	}
}
