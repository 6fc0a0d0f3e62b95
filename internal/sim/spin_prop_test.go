package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The lockstep property test pins Thread.Spin to what it replaces: a poller
// that charges one Exec per empty poll round. One randomized world — timers,
// callbacks, sleeping processes, timeout waits that get cancelled, a
// contender thread pinned to the poller's core, a poll condition that turns
// true by the clock alone, polls that take time yet find nothing — is run
// twice from the same seed, once with the reference per-round loop and once
// with Spin, under the same random RunUntil limits. Everything any other
// party can observe must match: the dispatch order and times of all
// non-poller events, what the poller found and after how many rounds, the
// CPU snapshot at every limit, and the final time.

const (
	spinRound = 250 * Nanosecond
	spinGrain = 50 // event delays are multiples of this, so ties with round boundaries are common
)

type spinObs struct {
	log   []string
	snaps []map[string]Duration
	nows  []Time
	disp  uint64
}

func runSpinWorld(seed int64, limits []Time, useSpin bool) spinObs {
	env := New(seed)
	defer env.Close()
	rng := rand.New(rand.NewSource(seed)) // never drawn from by the poller
	cpu := NewCPU(env, 2)
	var o spinObs
	note := func(format string, args ...any) {
		o.log = append(o.log, fmt.Sprintf("%d ", env.Now())+fmt.Sprintf(format, args...))
	}
	delay := func(max int) Duration { return Duration(rng.Intn(max)+1) * spinGrain }

	pending := 0      // event-driven poll condition
	deadline := Never // time-driven poll condition (the Spin until)
	stale := 0        // entries that cost the poller time to discard but are not work
	disturb := func() {
		switch rng.Intn(7) {
		case 0, 1:
			pending++
		case 2:
			if deadline == Never {
				deadline = env.Now().Add(delay(400))
			}
		case 3:
			stale++
		}
	}

	poller := cpu.ThreadOn(0, "poll")
	env.Go("poller", func(p *Proc) {
		rounds := 0
		for {
			found, polled := false, p.Now()
			if pending > 0 {
				pending--
				found = true
				note("poller work after %d rounds", rounds)
			}
			if p.Now() >= deadline {
				deadline = Never
				found = true
				note("poller deadline after %d rounds", rounds)
			}
			if stale > 0 {
				// Discarding takes time; work that arrives meanwhile on
				// the sources checked above goes unseen by this poll.
				poller.Exec(p, Duration(stale)*3*spinGrain)
				stale = 0
			}
			switch {
			case found:
				poller.Exec(p, 2*spinRound)
			case useSpin && p.Now() != polled:
				// The empty poll took time, so it is already out of date:
				// one round, whatever the clock-driven bound says.
				rounds += poller.Spin(p, spinRound, p.Now())
			case useSpin:
				rounds += poller.Spin(p, spinRound, deadline)
			default:
				poller.Exec(p, spinRound)
				rounds++
			}
		}
	})

	// A contender pinned to the poller's core: its Execs queue behind the
	// poller's round and make the poller's next Acquire park.
	contender := cpu.ThreadOn(0, "contender")
	env.Go("contender", func(p *Proc) {
		for {
			p.Sleep(delay(600))
			contender.Exec(p, delay(12))
			note("contender ran")
		}
	})
	other := cpu.ThreadOn(1, "other")

	c := NewCond(env)
	for i := 0; i < 1+rng.Intn(4); i++ {
		i := i
		var tick func()
		tick = func() {
			note("timer %d", i)
			disturb()
			if rng.Intn(4) == 0 {
				c.Signal(nil)
			}
			env.After(delay(2000), tick)
		}
		env.After(delay(2000), tick)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		i := i
		env.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(delay(3000))
				note("sleeper %d", i)
				disturb()
				if rng.Intn(3) == 0 {
					other.Exec(p, delay(20))
				}
			}
		})
	}
	env.Go("waiter", func(p *Proc) {
		for {
			// Signals that beat the timeout leave dead timer events queued.
			_, signaled := c.WaitTimeout(delay(4000))
			note("waiter signaled=%v", signaled)
		}
	})

	for _, l := range limits {
		env.RunUntil(l)
		o.snaps = append(o.snaps, cpu.Snapshot().busy)
		o.nows = append(o.nows, env.Now())
	}
	o.disp = env.Dispatched()
	return o
}

func TestSpinMatchesPerRoundLoop(t *testing.T) {
	var refEvents, spinEvents uint64
	for seed := int64(1); seed <= 60; seed++ {
		lr := rand.New(rand.NewSource(-seed))
		var limits []Time
		var at Time
		for i := 0; i < 12; i++ {
			// Limits land on, next to and between round boundaries.
			at += Time(lr.Intn(40000)+1) * spinGrain
			limits = append(limits, at+Time(lr.Intn(3)-1))
		}
		ref := runSpinWorld(seed, limits, false)
		got := runSpinWorld(seed, limits, true)
		for i := 0; i < len(ref.log) || i < len(got.log); i++ {
			if i >= len(ref.log) || i >= len(got.log) || ref.log[i] != got.log[i] {
				t.Fatalf("seed %d: logs diverge at entry %d:\n per-round: %q\n spin:      %q",
					seed, i, ref.log[min(i, len(ref.log)):min(i+1, len(ref.log))], got.log[min(i, len(got.log)):min(i+1, len(got.log))])
			}
		}
		if !reflect.DeepEqual(ref.snaps, got.snaps) {
			t.Fatalf("seed %d: CPU snapshots diverged:\n per-round: %v\n spin:      %v", seed, ref.snaps, got.snaps)
		}
		if !reflect.DeepEqual(ref.nows, got.nows) {
			t.Fatalf("seed %d: clocks diverged: %v vs %v", seed, ref.nows, got.nows)
		}
		refEvents += ref.disp
		spinEvents += got.disp
	}
	// The point of Spin: the same world for far fewer scheduled events.
	if spinEvents*3 > refEvents {
		t.Fatalf("spin dispatched %d events against %d per-round: expected at least 3x fewer", spinEvents, refEvents)
	}
}

// TestSpinSingleRoundWhenCoreContended is the stale-poll rule in isolation:
// a spin that had to queue for the core charges exactly one round, because
// whatever ran in the meantime may have produced work.
func TestSpinSingleRoundWhenCoreContended(t *testing.T) {
	env := New(1)
	defer env.Close()
	cpu := NewCPU(env, 1)
	hog, poll := cpu.ThreadOn(0, "hog"), cpu.ThreadOn(0, "poll")
	env.Go("hog", func(p *Proc) { hog.Exec(p, 10*Microsecond) })
	var rounds int
	var woke Time
	env.Go("poller", func(p *Proc) {
		rounds = poll.Spin(p, spinRound, Never)
		woke = p.Now()
	})
	env.After(Millisecond, func() {})
	env.RunUntil(Time(Millisecond))
	if rounds != 1 || woke != Time(10*Microsecond+spinRound) {
		t.Fatalf("contended spin: %d rounds, woke at %v; want 1 round ending at 10.250us", rounds, woke)
	}
}

// TestSpinLandsStrictlyBeforeHorizon checks the landing rule on each bound:
// the spin stops at the last round boundary strictly before the next event,
// the run limit or until, and an event already due costs one round.
func TestSpinLandsStrictlyBeforeHorizon(t *testing.T) {
	for _, tc := range []struct {
		name         string
		event, until Time
		limit        Time
		want         int
	}{
		{"event between boundaries", 1100, Never, 1 << 40, 4},
		{"event on a boundary", 1000, Never, 1 << 40, 3},
		{"until on a boundary", 1 << 30, 750, 1 << 40, 2},
		{"run limit", 1 << 30, Never, 1300, 5},
		{"event within one round", 200, Never, 1 << 40, 1},
		{"event due now", 0, Never, 1 << 40, 1},
	} {
		env := New(1)
		th := NewCPU(env, 1).ThreadOn(0, "poll")
		var rounds int
		env.Go("poller", func(p *Proc) { rounds = th.Spin(p, spinRound, tc.until) })
		env.At(tc.event, func() {})
		env.RunUntil(tc.limit)
		env.Close()
		if rounds != tc.want {
			t.Errorf("%s: %d rounds, want %d", tc.name, rounds, tc.want)
		}
	}
}

// BenchmarkSpin is one idle gap of the router's QD1 shape per op: a poller
// with a 250 ns round waits out an 80 us device latency (320 rounds), then
// handles the completion.
func BenchmarkSpin(b *testing.B) {
	env := New(1)
	defer env.Close()
	th := NewCPU(env, 1).ThreadOn(0, "poll")
	done := false
	env.Go("device", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(80 * Microsecond)
			done = true
		}
		env.Stop()
	})
	env.Go("poller", func(p *Proc) {
		for {
			if done {
				done = false
				th.Exec(p, 2*spinRound)
			} else {
				th.Spin(p, spinRound, Never)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.RunUntil(1 << 62)
	b.ReportMetric(float64(env.Dispatched())/float64(b.N), "events/op")
}
