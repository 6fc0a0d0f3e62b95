package sim

import (
	"math/rand"
	"slices"
	"testing"
)

type expiry struct {
	id, gen uint32
	at      Time
}

// TestDeadlinesMatchPerAttemptTimers drives a Deadlines queue and the thing
// it replaces — one After closure per attempt, checking liveness when it
// fires — with the same random history: submissions in bursts and trickles,
// completions before, at and never before the deadline, and a Timeout that
// is shortened and lengthened while attempts are outstanding. Both must
// expire the same attempts at the same instants in the same order.
func TestDeadlinesMatchPerAttemptTimers(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := New(seed)
		awaited := map[uint32]uint32{} // id -> generation outstanding
		var got, want []expiry
		d := NewDeadlines(env,
			func(id, gen uint32) bool { g, ok := awaited[id]; return ok && g == gen },
			func(id, gen uint32) { got = append(got, expiry{id, gen, env.Now()}) })
		timeout := 100 * Microsecond
		var gen uint32
		maxLen := 0
		env.Go("driver", func(p *Proc) {
			for step := 0; step < 2000; step++ {
				if rng.Intn(4) > 0 {
					p.Sleep(Duration(rng.Intn(20)) * Microsecond)
				}
				if rng.Intn(50) == 0 {
					timeout = Duration(1+rng.Intn(200)) * Microsecond
				}
				id := uint32(rng.Intn(64))
				if _, busy := awaited[id]; busy {
					continue
				}
				gen++
				g := gen
				awaited[id] = g
				at := env.Now().Add(timeout)
				d.Add(id, g, at)
				env.At(at, func() {
					if awaited[id] == g {
						want = append(want, expiry{id, g, env.Now()})
					}
				})
				// Most attempts complete early; some exactly at the
				// deadline (after it, in event order), some never.
				switch r := rng.Intn(10); {
				case r < 7:
					env.After(Duration(rng.Int63n(int64(timeout))), func() {
						if awaited[id] == g {
							delete(awaited, id)
						}
					})
				case r == 7:
					env.At(at, func() {
						if awaited[id] == g {
							delete(awaited, id)
						}
					})
				default:
					// Lost: the slot frees a while after the expiry.
					env.At(at.Add(Microsecond), func() { delete(awaited, id) })
				}
				maxLen = max(maxLen, d.Len())
			}
		})
		env.Run()
		env.Close()
		if len(want) == 0 {
			t.Fatalf("seed %d: no attempt expired; the test shows nothing", seed)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %d expiries, per-attempt timers gave %d; first difference at %d",
				seed, len(got), len(want), firstDiff(got, want))
		}
		if d.Len() != 0 {
			t.Fatalf("seed %d: %d entries left after the last timer", seed, d.Len())
		}
		if maxLen > 64 {
			t.Fatalf("seed %d: queue reached %d entries with at most 64 attempts outstanding", seed, maxLen)
		}
	}
}

func firstDiff(a, b []expiry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestDeadlinesOneTimerPerTimeout pins the two costs the queue exists to
// remove: a stream of attempts that all complete in time schedules about
// one timer event per Timeout, not one per attempt, and the storage stays
// within a small multiple of the deepest backlog however many pass through.
func TestDeadlinesOneTimerPerTimeout(t *testing.T) {
	env := New(1)
	const depth, total = 8, 100000
	const service, timeout = 10 * Microsecond, 100 * Millisecond
	done := make([]bool, total)
	d := NewDeadlines(env,
		func(id, _ uint32) bool { return !done[id] },
		func(id, _ uint32) { t.Errorf("attempt %d expired", id) })
	next := 0
	var submit func()
	submit = func() {
		id := next
		next++
		d.Add(uint32(id), 0, env.Now().Add(timeout))
		env.After(service, func() {
			done[id] = true
			if next < total {
				submit()
			}
		})
	}
	for range depth {
		submit()
	}
	base := env.Dispatched()
	env.Run()
	span := Duration(total/depth) * service
	timers := env.Dispatched() - base - total // every attempt costs its completion event
	if limit := uint64(span/timeout) + 2; timers > limit {
		t.Errorf("%d timer events over %v of virtual time with a %v timeout, want at most %d", timers, span, timeout, limit)
	}
	if c := cap(d.q); c > 4*depth {
		t.Errorf("storage grew to %d slots for a backlog of %d over %d attempts", c, depth, total)
	}
	env.Close()
}
