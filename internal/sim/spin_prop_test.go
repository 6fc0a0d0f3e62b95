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
// true by the clock alone and is armed by other parties while the poller
// spins, polls that take time yet find nothing — is run twice from the same
// seed, once with the reference per-round loop and once with Spin, under the
// same random RunUntil limits. Everything any other party can observe must
// match: the dispatch order and times of all non-poller events, what the
// poller found and after how many rounds, the poller's own count of its
// polls as the sleepers and every limit read it, the CPU snapshot at every
// limit and the final time. A third run spins with a poll that says "look" at
// every boundary reached — the spin that comes back to its process each time
// — and must dispatch exactly as many events as the one that looks for
// itself: the predicate moves rounds off the goroutines, not out of the queue.
// A fourth run has no poller process at all: the same loop as continuations
// on ExecFunc and SpinFunc, beside a waiter that is a WaitTimeoutFunc
// continuation instead of a WaitTimeout process. It must show every other
// party what the others do, dispatch as many events as Spin, and hand the run
// token over less often.

const (
	spinRound = 250 * Nanosecond
	spinGrain = 50 // event delays are multiples of this, so ties with round boundaries are common
)

type spinObs struct {
	log      []string
	snaps    []map[string]Duration
	polls    []int
	nows     []Time
	disp     uint64
	switches uint64
}

const (
	perRound   = iota // the reference: one Exec per empty poll
	spinReturn        // Spin, resumed at every boundary reached
	spinLook          // Spin with the poll's own readiness check
	spinFuncs         // the poller on SpinFunc/ExecFunc, the waiter on WaitTimeoutFunc
)

func runSpinWorld(seed int64, limits []Time, mode int) spinObs {
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
	deadline := Never // time-driven poll condition, armed by the other parties
	stale := 0        // entries that cost the poller time to discard but are not work
	polls := 0        // the poller's books: polls made, elided ones included
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
	// The poll below, reduced to looking. Discarding a stale entry is charged,
	// so it has to be looked at although it is not work.
	look := func(n int) Time {
		polls += n
		if pending > 0 || stale > 0 || (mode == spinReturn && n > 0) {
			return 0
		}
		return deadline
	}
	rounds := 0
	sweep := func() (found bool) {
		polls++
		if pending > 0 {
			pending--
			found = true
			note("poller work after %d rounds", rounds)
		}
		if env.Now() >= deadline {
			deadline = Never
			found = true
			note("poller deadline after %d rounds", rounds)
		}
		return found
	}
	if mode == spinFuncs {
		// The loop below as continuations. SpinFunc returns no count: the
		// rounds reach the books through poll, one step at a time.
		var found bool
		var top, discarded, spun func()
		lookRounds := func(n int) Time { rounds += n; return look(n) }
		next := func() {
			if found {
				poller.ExecFunc(2*spinRound, top)
			} else {
				poller.SpinFunc(spinRound, lookRounds, spun)
			}
		}
		top = func() {
			if found = sweep(); stale > 0 {
				poller.ExecFunc(Duration(stale)*3*spinGrain, discarded)
				return
			}
			next()
		}
		discarded = func() { stale = 0; next() }
		spun = func() { polls--; top() }
		env.After(0, top)
	} else {
		env.Go("poller", func(p *Proc) {
			for {
				found := sweep()
				if stale > 0 {
					// Discarding takes time; work that arrives meanwhile on
					// the sources checked above goes unseen by this poll.
					poller.Exec(p, Duration(stale)*3*spinGrain)
					stale = 0
				}
				switch {
				case found:
					poller.Exec(p, 2*spinRound)
				case mode != perRound:
					// The empty poll may have taken time and be out of date
					// already: Spin looks again on entry.
					rounds += poller.Spin(p, spinRound, look)
					polls-- // the poll at the boundary Spin came back on is the next one above
				default:
					poller.Exec(p, spinRound)
					rounds++
				}
			}
		})
	}

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
				note("sleeper %d sees %d polls", i, polls)
				disturb()
				if rng.Intn(3) == 0 {
					other.Exec(p, delay(20))
				}
			}
		})
	}
	// Signals that beat the timeout leave dead timer events queued.
	if mode == spinFuncs {
		var wait func()
		woke := func(signaled bool) {
			note("waiter signaled=%v", signaled)
			wait()
		}
		wait = func() { c.WaitTimeoutFunc(delay(4000), woke) }
		env.After(0, wait)
	} else {
		env.Go("waiter", func(p *Proc) {
			for {
				_, signaled := c.WaitTimeout(delay(4000))
				note("waiter signaled=%v", signaled)
			}
		})
	}

	for _, l := range limits {
		env.RunUntil(l)
		o.snaps = append(o.snaps, cpu.Snapshot().busy)
		o.polls = append(o.polls, polls)
		o.nows = append(o.nows, env.Now())
	}
	o.disp, o.switches = env.Dispatched(), env.Switches()
	return o
}

// sameView fails the test unless got shows every other party what ref does.
func sameView(t *testing.T, seed int64, name string, ref, got spinObs) {
	t.Helper()
	for i := 0; i < len(ref.log) || i < len(got.log); i++ {
		if i >= len(ref.log) || i >= len(got.log) || ref.log[i] != got.log[i] {
			t.Fatalf("seed %d: logs diverge at entry %d:\n per-round: %q\n %s: %q",
				seed, i, ref.log[min(i, len(ref.log)):min(i+1, len(ref.log))], name, got.log[min(i, len(got.log)):min(i+1, len(got.log))])
		}
	}
	if !reflect.DeepEqual(ref.snaps, got.snaps) {
		t.Fatalf("seed %d: CPU snapshots diverged:\n per-round: %v\n %s: %v", seed, ref.snaps, name, got.snaps)
	}
	if !reflect.DeepEqual(ref.polls, got.polls) {
		t.Fatalf("seed %d: the poller's poll count at the limits diverged:\n per-round: %v\n %s: %v", seed, ref.polls, name, got.polls)
	}
	if !reflect.DeepEqual(ref.nows, got.nows) {
		t.Fatalf("seed %d: clocks diverged: %v vs %v (%s)", seed, ref.nows, got.nows, name)
	}
}

func TestSpinMatchesPerRoundLoop(t *testing.T) {
	var refEvents, spinEvents, backSwitches, spinSwitches, funcSwitches uint64
	for seed := int64(1); seed <= 60; seed++ {
		lr := rand.New(rand.NewSource(-seed))
		var limits []Time
		var at Time
		for i := 0; i < 12; i++ {
			// Limits land on, next to and between round boundaries.
			at += Time(lr.Intn(40000)+1) * spinGrain
			limits = append(limits, at+Time(lr.Intn(3)-1))
		}
		ref := runSpinWorld(seed, limits, perRound)
		back := runSpinWorld(seed, limits, spinReturn)
		got := runSpinWorld(seed, limits, spinLook)
		fn := runSpinWorld(seed, limits, spinFuncs)
		sameView(t, seed, "spin, resumed", ref, back)
		sameView(t, seed, "spin", ref, got)
		sameView(t, seed, "SpinFunc", ref, fn)
		if back.disp != got.disp || fn.disp != got.disp {
			t.Fatalf("seed %d: events dispatched: Spin %d, Spin resumed at every boundary %d, SpinFunc %d",
				seed, got.disp, back.disp, fn.disp)
		}
		refEvents += ref.disp
		spinEvents += got.disp
		backSwitches += back.switches
		spinSwitches += got.switches
		funcSwitches += fn.switches
	}
	if funcSwitches >= spinSwitches {
		t.Fatalf("SpinFunc took %d run-token hand-offs against Spin's %d: the poller and the waiter are no processes", funcSwitches, spinSwitches)
	}
	// The point of Spin: the same world for far fewer scheduled events, and
	// the boundaries still reached handled without the poller's goroutine.
	if spinEvents*3 > refEvents {
		t.Fatalf("spin dispatched %d events against %d per-round: expected at least 3x fewer", spinEvents, refEvents)
	}
	if spinSwitches >= backSwitches {
		t.Fatalf("spin took %d run-token hand-offs against %d when resumed at every boundary: expected fewer", spinSwitches, backSwitches)
	}
}

// TestSpinSingleRoundWhenCoreContended is the stale-poll rule in isolation:
// a spin that had to queue for the core starts with exactly one round and
// looks at its end, whatever the caller's poll made of things before the
// wait: whatever ran in the meantime may have produced work.
func TestSpinSingleRoundWhenCoreContended(t *testing.T) {
	env := New(1)
	defer env.Close()
	cpu := NewCPU(env, 1)
	hog, poll := cpu.ThreadOn(0, "hog"), cpu.ThreadOn(0, "poll")
	env.Go("hog", func(p *Proc) { hog.Exec(p, 10*Microsecond) })
	var rounds int
	var woke Time
	env.Go("poller", func(p *Proc) {
		// On entry nothing is in sight (asked then, Spin would run out to the
		// event a millisecond away); at a boundary there is.
		rounds = poll.Spin(p, spinRound, func(n int) Time {
			if n == 0 {
				return Never
			}
			return 0
		})
		woke = p.Now()
	})
	env.After(Millisecond, func() {})
	env.RunUntil(Time(Millisecond))
	if rounds != 1 || woke != Time(10*Microsecond+spinRound) {
		t.Fatalf("contended spin: %d rounds, woke at %v; want 1 round ending at 10.250us", rounds, woke)
	}
}

// TestSpinLandsStrictlyBeforeHorizon checks the landing rule on each bound:
// a step of the spin stops at the last round boundary strictly before the
// next event, the run limit or the poll's bound, and an event already due
// costs one round.
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
		env.Go("poller", func(p *Proc) {
			// Come back at the first boundary reached: one step.
			rounds = th.Spin(p, spinRound, func(n int) Time {
				if n > 0 {
					return 0
				}
				return tc.until
			})
		})
		env.At(tc.event, func() {})
		env.RunUntil(tc.limit)
		env.Close()
		if rounds != tc.want {
			t.Errorf("%s: %d rounds, want %d", tc.name, rounds, tc.want)
		}
	}
}

// TestSpinStaysInSchedulerContext is what the poll argument buys: a poller
// idle across 100 wakes of another process that are none of its business is
// never resumed — every boundary it reaches is one event, handled where it
// is popped — and comes back on the first boundary at which its poll has
// something to see.
func TestSpinStaysInSchedulerContext(t *testing.T) {
	env := New(1)
	defer env.Close()
	th := NewCPU(env, 1).ThreadOn(0, "poll")
	ready, rounds, calls := false, 0, 0
	var woke Time
	env.Go("poller", func(p *Proc) {
		rounds = th.Spin(p, spinRound, func(int) Time {
			calls++
			if ready {
				return 0
			}
			return Never
		})
		woke = p.Now()
	})
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1100)
		}
		p.Sleep(100)
		ready = true
	})
	env.RunUntil(Time(Millisecond))
	// 110100 lies in the round ending at 110250 = 441 rounds.
	if rounds != 441 || woke != 110250 {
		t.Fatalf("%d rounds, back at %v; want 441 rounds ending at 110.250us", rounds, woke)
	}
	// Two spawn starts, the poller's first park, its resume at the end: the
	// ticker dispatches the poller's boundaries between its own sleeps.
	if sw := env.Switches(); sw > 4 {
		t.Fatalf("%d run-token hand-offs, want at most 4: the idle boundaries must not resume the poller", sw)
	}
	if calls < 200 {
		t.Fatalf("poll consulted %d times, want one per boundary reached (>= 200)", calls)
	}
}

// TestSpinRederivesBound is the first trap of keeping a spin alive across
// other parties' events: a time bound that one of them sets while the poller
// spins. A bound read once, on entry, would be Never here and the poller
// would sail past its deadline to the next event.
func TestSpinRederivesBound(t *testing.T) {
	env := New(1)
	defer env.Close()
	th := NewCPU(env, 1).ThreadOn(0, "poll")
	deadline, rounds := Never, 0
	env.Go("poller", func(p *Proc) {
		rounds = th.Spin(p, spinRound, func(int) Time { return deadline })
	})
	env.At(1000, func() { deadline = 2100 })
	env.At(Time(Millisecond), func() {})
	env.RunUntil(Time(2 * Millisecond))
	if rounds != 9 {
		t.Fatalf("%d rounds, want 9: the first boundary at or past the deadline set mid-spin is 2.250us", rounds)
	}
}

// TestSpinYieldsCoreToWaiter is the third: a thread that queues for the
// spinner's core gets it at the next round boundary, as it would between two
// Execs, although the spinner's poll has nothing to see.
func TestSpinYieldsCoreToWaiter(t *testing.T) {
	env := New(1)
	defer env.Close()
	cpu := NewCPU(env, 1)
	poll, other := cpu.ThreadOn(0, "poll"), cpu.ThreadOn(0, "other")
	var spun []int
	env.Go("poller", func(p *Proc) {
		for {
			spun = append(spun, poll.Spin(p, spinRound, func(int) Time { return Never }))
		}
	})
	var ran Time
	env.Go("other", func(p *Proc) {
		p.Sleep(1100)
		other.Exec(p, 100)
		ran = p.Now()
	})
	env.RunUntil(3000)
	if ran != 1350 {
		t.Fatalf("waiter finished at %v, want 1.350us: the core is due at the 1.250us boundary", ran)
	}
	if len(spun) == 0 || spun[0] != 5 {
		t.Fatalf("spins %v, want the first to come back after 5 rounds", spun)
	}
}

// BenchmarkSpin is one idle gap of the router's QD1 shape per op: a poller
// with a 250 ns round waits out an 80 us device latency (320 rounds), then
// handles the completion. Alone, the horizon elision makes the gap one event.
// With a second poller beside it each one's next boundary is the other's
// horizon, so every round is an event — handled in scheduler context by the
// poll argument, where it used to resume the poller to look for itself
// ("resumed" is that spin, kept as the baseline).
func BenchmarkSpin(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pollers int
		resume  bool
	}{{"alone", 1, false}, {"pair", 2, false}, {"pair-resumed", 2, true}} {
		b.Run(bc.name, func(b *testing.B) {
			env := New(1)
			defer env.Close()
			cpu := NewCPU(env, bc.pollers)
			done := false
			env.Go("device", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(80 * Microsecond)
					done = true
				}
				env.Stop()
			})
			for i := 0; i < bc.pollers; i++ {
				i, th := i, cpu.ThreadOn(i, "poll")
				look := func(n int) Time {
					if (i == 0 && done) || (bc.resume && n > 0) {
						return 0
					}
					return Never
				}
				env.Go("poller", func(p *Proc) {
					for {
						if i == 0 && done {
							done = false
							th.Exec(p, 2*spinRound)
						} else {
							th.Spin(p, spinRound, look)
						}
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			env.RunUntil(1 << 62)
			b.ReportMetric(float64(env.Dispatched())/float64(b.N), "events/op")
			b.ReportMetric(float64(env.Switches())/float64(b.N), "switches/op")
		})
	}
}

// BenchmarkSpinFunc is BenchmarkSpin with the pollers as continuations
// (SpinFunc and ExecFunc, the router worker's shape): the same events per op
// as Spin's, and no poller is ever a process to resume.
func BenchmarkSpinFunc(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pollers int
	}{{"alone", 1}, {"pair", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			env := New(1)
			defer env.Close()
			cpu := NewCPU(env, bc.pollers)
			done := false
			env.Go("device", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Sleep(80 * Microsecond)
					done = true
				}
				env.Stop()
			})
			for i := 0; i < bc.pollers; i++ {
				i, th := i, cpu.ThreadOn(i, "poll")
				look := func(int) Time {
					if i == 0 && done {
						return 0
					}
					return Never
				}
				var round func()
				round = func() {
					if i == 0 && done {
						done = false
						th.ExecFunc(2*spinRound, round)
					} else {
						th.SpinFunc(spinRound, look, round)
					}
				}
				env.After(0, round)
			}
			b.ReportAllocs()
			b.ResetTimer()
			env.RunUntil(1 << 62)
			b.ReportMetric(float64(env.Dispatched())/float64(b.N), "events/op")
			b.ReportMetric(float64(env.Switches())/float64(b.N), "switches/op")
		})
	}
}
