package fault

import (
	"strings"
	"testing"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Two injectors derived from the same plan at the same site must produce
// the identical decision sequence — the subsystem's core guarantee.
func TestSameSiteSameDecisions(t *testing.T) {
	mk := func() *Injector {
		return NewPlan(42).
			WithMediaErrors(0.1).
			WithDrops(0.05, 3).
			WithStuck(0.05, 0, sim.Millisecond).
			Injector("device")
	}
	a, b := mk(), mk()
	classes := []Class{ClassRead, ClassWrite, ClassOther}
	for i := 0; i < 10000; i++ {
		c := classes[i%len(classes)]
		da, db := a.Decide(c), b.Decide(c)
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
	if a.Commands != b.Commands || a.Injected != b.Injected {
		t.Fatalf("counters diverged:\n%d %v\n%d %v", a.Commands, a.Injected, b.Commands, b.Injected)
	}
	if a.InjectedTotal() == 0 {
		t.Fatal("expected some injections at 10% over 10k commands")
	}
}

// Streams at different sites must be independent (different sequences).
func TestSitesIndependent(t *testing.T) {
	p := NewPlan(7).WithMediaErrors(0.5)
	a, b := p.Injector("device"), p.Injector("remote-device")
	same := true
	for i := 0; i < 200; i++ {
		if a.Decide(ClassRead) != b.Decide(ClassRead) {
			same = false
		}
	}
	if same {
		t.Fatal("two sites produced identical 200-decision sequences")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	inj := NewPlan(1).WithMediaErrors(0).Injector("d")
	for i := 0; i < 100; i++ {
		if inj.Decide(ClassRead).Faulty() {
			t.Fatal("rate 0 injected a fault")
		}
	}
	inj = NewPlan(1).WithMediaErrors(1).Injector("d")
	if d := inj.Decide(ClassRead); d.Status != nvme.SCUnrecoveredRead {
		t.Fatalf("read at rate 1: %+v", d)
	}
	if d := inj.Decide(ClassWrite); d.Status != nvme.SCWriteFault {
		t.Fatalf("write at rate 1: %+v", d)
	}
	if d := inj.Decide(ClassOther); d.Faulty() {
		t.Fatalf("media rules must not hit ClassOther: %+v", d)
	}
}

func TestRuleLimit(t *testing.T) {
	inj := NewPlan(1).WithDrops(1, 2).Injector("d")
	drops := 0
	for i := 0; i < 50; i++ {
		if inj.Decide(ClassWrite).Drop {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("limit 2, got %d drops", drops)
	}
}

// Exhausted rules must keep drawing from the stream so later rules see the
// same draws regardless of firing history: two plans differing only in an
// earlier rule's limit agree on the later rule's decisions.
func TestStreamAlignmentAcrossLimits(t *testing.T) {
	seq := func(limit int) []bool {
		inj := NewPlan(3).
			WithDrops(0.5, limit).
			WithStuck(0.3, 0, sim.Millisecond).
			Injector("d")
		var out []bool
		for i := 0; i < 500; i++ {
			out = append(out, inj.Decide(ClassWrite).Delay > 0)
		}
		return out
	}
	a, b := seq(1), seq(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stuck decisions diverged at %d when drop limit changed", i)
		}
	}
}

func TestStuckDelay(t *testing.T) {
	p := NewPlan(1).WithStuck(1, 0, 5*sim.Millisecond)
	if d := p.Injector("d").Decide(ClassRead); d.Delay != 5*sim.Millisecond {
		t.Fatalf("delay: %+v", d)
	}
}

// Every kind must have a distinct human-readable name: a future numKinds
// bump can't ship an unnamed kind, because the fallback formatting is
// "Kind(N)" and that fails this round trip.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name: %q", int(k), s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	// The set must cover the kinds this PR ships with; growing is fine,
	// shrinking means a kind was deleted without updating this test.
	if numKinds < 10 {
		t.Fatalf("expected >= 10 kinds, got %d", numKinds)
	}
	if !strings.HasPrefix(Kind(numKinds).String(), "Kind(") {
		t.Error("out-of-range kind should format as Kind(N)")
	}
}

// WithRule must reject malformed rules at plan-build time.
func TestWithRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule rule
		ok   bool
	}{
		{"valid", rule{Kind: dropCompletion, Rate: 0.5}, true},
		{"rate zero", rule{Kind: BitRot, Rate: 0}, true},
		{"rate one", rule{Kind: LostWrite, Rate: 1}, true},
		{"rate negative", rule{Kind: BitRot, Rate: -0.1}, false},
		{"rate above one", rule{Kind: TornWrite, Rate: 1.1}, false},
		{"negative delay", rule{Kind: stuckCompletion, Rate: 0.5, Delay: -sim.Millisecond}, false},
		{"negative limit", rule{Kind: dropCompletion, Rate: 0.5, Limit: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if gotErr := tc.rule.validate() != nil; gotErr == tc.ok {
				t.Fatalf("Validate() error=%v, want ok=%v", gotErr, tc.ok)
			}
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Fatalf("WithRule panic=%v, want ok=%v", r, tc.ok)
				}
			}()
			NewPlan(1).withRule(tc.rule)
		})
	}
}

// Corruption kinds are class-gated: BitRot on reads, the write corruptions
// on writes, and the decision carries the kind for the store layer.
func TestCorruptionKinds(t *testing.T) {
	for _, k := range []Kind{TornWrite, MisdirectedWrite, LostWrite} {
		inj := NewPlan(1).withRule(rule{Kind: k, Rate: 1}).Injector("d")
		if d := inj.Decide(ClassWrite); !d.HasCorrupt || d.Corrupt != k {
			t.Fatalf("%v on write: %+v", k, d)
		}
		if d := inj.Decide(ClassRead); d.Faulty() {
			t.Fatalf("%v must not hit reads: %+v", k, d)
		}
	}
	inj := NewPlan(1).WithBitRot(1, 0).Injector("d")
	if d := inj.Decide(ClassRead); !d.HasCorrupt || d.Corrupt != BitRot {
		t.Fatalf("bit-rot on read: %+v", d)
	}
	if d := inj.Decide(ClassWrite); d.Faulty() {
		t.Fatalf("bit-rot must not hit writes: %+v", d)
	}
}

// A nil injector must be a total no-op.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Decide(ClassRead).Faulty() || inj.InjectedTotal() != 0 {
		t.Fatal("nil injector not inert")
	}
}
