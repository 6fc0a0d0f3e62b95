package qos

import (
	"fmt"
	"math/rand"
	"testing"

	"nvmetro/internal/sim"
)

// refTick is Tick as it was before it returned early between window ends:
// every call walks every tenant. It is the oracle for TestTickMatchesFullPass.
func (a *Arbiter) refTick(now sim.Time) {
	rolled, missed := false, false
	a.nextEnd = sim.Never
	for _, t := range a.tenants {
		if t.winEnd == 0 {
			t.winEnd = now + sim.Time(a.cfg.Window)
			a.nextEnd = min(a.nextEnd, t.winEnd)
			continue
		}
		for now >= t.winEnd {
			if t.cfg.SLOTargetP99 > 0 && !t.cfg.BestEffort {
				rolled = true
				if t.winLat.Count() > 0 && sim.Duration(t.winLat.Quantile(0.99)) > t.cfg.SLOTargetP99 {
					t.missed++
					missed = true
				} else {
					t.met++
				}
			}
			t.winLat.Reset()
			t.winEnd += sim.Time(a.cfg.Window)
		}
		a.nextEnd = min(a.nextEnd, t.winEnd)
	}
	if !rolled {
		return
	}
	if missed {
		a.overloaded = true
		a.cleanRuns = 0
		for _, t := range a.tenants {
			if t.cfg.BestEffort && !t.shed {
				t.shed = true
				a.Sheds++
			}
		}
		return
	}
	if a.overloaded {
		a.cleanRuns++
		if a.cleanRuns >= a.cfg.RecoverWindows {
			a.overloaded = false
			a.cleanRuns = 0
			for _, t := range a.tenants {
				if t.shed {
					t.shed = false
					a.Restores++
				}
			}
		}
	}
}

// sameTick reports whether a and b agree on everything a Tick decides.
func sameTick(a, b *Arbiter) bool {
	if a.NextWindowEnd() != b.NextWindowEnd() || a.Overloaded() != b.Overloaded() || a.cleanRuns != b.cleanRuns ||
		a.Sheds != b.Sheds || a.Restores != b.Restores || len(a.tenants) != len(b.tenants) {
		return false
	}
	for i, t := range a.tenants {
		u := b.tenants[i]
		if t.winEnd != u.winEnd || t.met != u.met || t.missed != u.missed || t.shed != u.shed {
			return false
		}
	}
	return true
}

// tickState renders what sameTick compares, for a failure message.
func tickState(a *Arbiter) string {
	s := fmt.Sprintf("end=%d over=%v clean=%d sheds=%d restores=%d", a.NextWindowEnd(), a.Overloaded(), a.cleanRuns, a.Sheds, a.Restores)
	for _, t := range a.tenants {
		s += fmt.Sprintf(" [%s win=%d met=%d missed=%d shed=%v]", t.name, t.winEnd, t.met, t.missed, t.shed)
	}
	return s
}

// TestTickMatchesFullPass drives two arbiters with the same script — tenants
// joining at random instants (SLO, best-effort and plain), random latencies,
// calls at random instants from a fraction of a round to several windows
// apart — one ticked by Tick, the other by the full pass of every tenant it
// replaced. NextWindowEnd, the admission controller and every tenant's
// windows must agree after every call, and most calls must land before a
// window end, where Tick walks nothing.
func TestTickMatchesFullPass(t *testing.T) {
	const window = 20 * sim.Microsecond
	early := 0
	var sheds, restores uint64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast := NewArbiter(Config{Window: window, RecoverWindows: 1 + int(seed%3)})
		ref := NewArbiter(Config{Window: window, RecoverWindows: 1 + int(seed%3)})
		var fastT, refT []*Tenant
		join := func(i int) {
			cfg := TenantConfig{}
			switch rng.Intn(3) {
			case 0:
				cfg.SLOTargetP99 = sim.Duration(30+rng.Intn(50)) * sim.Microsecond
			case 1:
				cfg.BestEffort = true
			}
			name := fmt.Sprintf("t%d", i)
			fastT = append(fastT, fast.AddTenant(name, cfg))
			refT = append(refT, ref.AddTenant(name, cfg))
		}
		join(0)
		now := sim.Time(0)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 2 && len(fastT) < 12:
				join(len(fastT))
			case r < 60:
				i := rng.Intn(len(fastT))
				lat := sim.Duration(rng.Intn(100)+1) * sim.Microsecond
				fast.ObserveLatency(fastT[i], lat)
				ref.ObserveLatency(refT[i], lat)
			}
			if rng.Intn(10) == 0 {
				now += sim.Time(rng.Intn(5 * int(window)))
			} else {
				now += sim.Time(rng.Intn(500))
			}
			if now < fast.NextWindowEnd() {
				early++
			}
			fast.Tick(now)
			ref.refTick(now)
			if !sameTick(fast, ref) {
				t.Fatalf("seed %d step %d at %v:\n Tick:      %s\n full pass: %s", seed, step, now, tickState(fast), tickState(ref))
			}
		}
		sheds += ref.Sheds
		restores += ref.Restores
	}
	if early < 20*3000/2 || sheds == 0 || restores == 0 {
		t.Fatalf("weak run: %d of %d calls before a window end, %d sheds, %d restores", early, 20*3000, sheds, restores)
	}
}
