package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := New(1)
	var woke Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	end := env.Run()
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", woke)
	}
	if end != woke {
		t.Fatalf("end time %v != wake time %v", end, woke)
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	env := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := New(1)
	var at Time
	env.After(3*Microsecond, func() { at = env.Now() })
	env.Run()
	if at != Time(3*Microsecond) {
		t.Fatalf("callback at %v", at)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	env := New(1)
	ticks := 0
	env.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	env.RunUntil(Time(10 * Microsecond))
	if ticks != 10 {
		t.Fatalf("got %d ticks, want 10", ticks)
	}
	if env.Now() != Time(10*Microsecond) {
		t.Fatalf("now=%v", env.Now())
	}
	env.Close()
}

func TestCondSignalWakesFIFO(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Go(name, func(p *Proc) {
			c.Wait()
			order = append(order, name)
		})
	}
	env.Go("signaler", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 0; i < 3; i++ {
			c.Signal(nil)
		}
	})
	env.Run()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("wake order %v", order)
	}
}

func TestCondSignalValue(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	var got any
	env.Go("waiter", func(p *Proc) { got = c.Wait() })
	env.Go("signaler", func(p *Proc) { c.Signal(42) })
	env.Run()
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	var signaled bool
	var at Time
	env.Go("waiter", func(p *Proc) {
		_, signaled = c.WaitTimeout(5 * Microsecond)
		at = p.Now()
	})
	env.Run()
	if signaled {
		t.Fatal("should have timed out")
	}
	if at != Time(5*Microsecond) {
		t.Fatalf("timed out at %v", at)
	}
	// Late Signal after timeout must not wake anyone or panic.
	if c.Signal(nil) {
		t.Fatal("signal found a stale waiter")
	}
}

func TestCondWaitTimeoutSignaledFirst(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	var signaled bool
	var at Time
	env.Go("waiter", func(p *Proc) {
		_, signaled = c.WaitTimeout(100 * Microsecond)
		at = p.Now()
	})
	env.Go("signaler", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		c.Signal(nil)
	})
	env.Run()
	if !signaled || at != Time(2*Microsecond) {
		t.Fatalf("signaled=%v at=%v", signaled, at)
	}
}

func TestCondBroadcast(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	woke := 0
	for i := 0; i < 5; i++ {
		env.Go("w", func(p *Proc) { c.Wait(); woke++ })
	}
	env.Go("b", func(p *Proc) { p.Sleep(1); c.Broadcast() })
	env.Run()
	if woke != 5 {
		t.Fatalf("woke %d", woke)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	env := New(1)
	r := NewResource(env, 1)
	var maxConc, conc int
	for i := 0; i < 4; i++ {
		env.Go("u", func(p *Proc) {
			r.Acquire()
			conc++
			if conc > maxConc {
				maxConc = conc
			}
			p.Sleep(10 * Microsecond)
			conc--
			r.Release()
		})
	}
	end := env.Run()
	if maxConc != 1 {
		t.Fatalf("max concurrency %d", maxConc)
	}
	if end != Time(40*Microsecond) {
		t.Fatalf("serialized end time %v", end)
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	env := New(1)
	r := NewResource(env, 4)
	for i := 0; i < 8; i++ {
		env.Go("u", func(p *Proc) { r.Acquire(); p.Sleep(10 * Microsecond); r.Release() })
	}
	if end := env.Run(); end != Time(20*Microsecond) {
		t.Fatalf("end %v, want 20us (two waves of four)", end)
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	env := New(1)
	r := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("u", func(p *Proc) {
			r.Acquire()
			order = append(order, i)
			p.Sleep(Microsecond)
			r.Release()
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

// TestResourceAcquireFuncFIFO mixes parked processes and AcquireFunc
// continuations in one waiter list: grants follow arrival order whatever
// the waiter's kind, a late TryAcquire cannot barge past a queued callback,
// QueueLen counts both, the continuation runs at the hand-over instant
// already owning the unit, and the hand-over empties the waiter list without
// giving up its storage.
func TestResourceAcquireFuncFIFO(t *testing.T) {
	env := New(1)
	r := NewResource(env, 1)
	var order []int
	var at []Time
	grant := func(i int) {
		order = append(order, i)
		at = append(at, env.Now())
	}
	hold := func(i int) func() {
		return func() {
			grant(i)
			if r.inUse != 1 {
				t.Errorf("waiter %d runs with InUse %d", i, r.inUse)
			}
			env.After(Microsecond, r.Release)
		}
	}
	if !r.AcquireFunc(func() { t.Error("fn ran although the unit was free") }) {
		t.Fatal("free unit not taken on the spot")
	}
	grant(0)
	env.After(Microsecond, r.Release)
	for i := 1; i <= 4; i++ {
		i := i
		if i%2 == 0 {
			env.Go("proc", func(p *Proc) {
				r.Acquire()
				grant(i)
				p.Sleep(Microsecond)
				r.Release()
			})
			continue
		}
		env.After(0, func() {
			if r.AcquireFunc(hold(i)) {
				t.Errorf("waiter %d barged", i)
			}
		})
	}
	env.After(0, func() {
		if queued(r) != 4 {
			t.Errorf("QueueLen %d, want 4", queued(r))
		}
		if r.tryAcquire() {
			t.Error("TryAcquire barged past queued waiters")
		}
	})
	env.Run()
	// The t=0 events dispatch in push order, so the waiters queued as
	// 1 (callback), 2 (process), 3, 4; each holds the unit for 1 us.
	for i, v := range order {
		if v != i || at[i] != Time(i)*Time(Microsecond) {
			t.Fatalf("grant order %v at %v", order, at)
		}
	}
	if len(order) != 5 || r.inUse != 0 || queued(r) != 0 {
		t.Fatalf("order %v, InUse %d, QueueLen %d", order, r.inUse, queued(r))
	}
	if !r.AcquireFunc(nil) || r.AcquireFunc(func() {}) {
		t.Fatal("second AcquireFunc on a held unit must queue")
	}
	c := cap(r.q)
	if queued(r) != 1 || c == 0 {
		t.Fatalf("QueueLen %d, storage %d after one queued callback", queued(r), c)
	}
	r.Release()
	if queued(r) != 0 || r.head != 0 || cap(r.q) != c {
		t.Fatalf("after the hand-over: QueueLen %d, head %d, storage %d (was %d)", queued(r), r.head, cap(r.q), c)
	}
}

func TestCoreAccounting(t *testing.T) {
	env := New(1)
	cpu := NewCPU(env, 2)
	th0 := cpu.ThreadOn(0, "a")
	th1 := cpu.ThreadOn(1, "b")
	snap := cpu.Snapshot()
	env.Go("a", func(p *Proc) { th0.Exec(p, 30*Microsecond) })
	env.Go("b", func(p *Proc) { th1.Exec(p, 10*Microsecond) })
	env.RunUntil(Time(100 * Microsecond))
	u := cpu.Since(snap)
	if u.ByTag["a"] != 30*Microsecond || u.ByTag["b"] != 10*Microsecond {
		t.Fatalf("usage %v", u.ByTag)
	}
	if got := u.Cores(); got < 0.39 || got > 0.41 {
		t.Fatalf("avg cores %f, want 0.4", got)
	}
}

func TestCoreContentionSerializes(t *testing.T) {
	env := New(1)
	cpu := NewCPU(env, 1)
	x, y := cpu.ThreadOn(0, "x"), cpu.ThreadOn(0, "y")
	var end1, end2 Time
	env.Go("a", func(p *Proc) { x.Exec(p, 10*Microsecond); end1 = p.Now() })
	env.Go("b", func(p *Proc) { y.Exec(p, 10*Microsecond); end2 = p.Now() })
	env.Run()
	if end1 != Time(10*Microsecond) || end2 != Time(20*Microsecond) {
		t.Fatalf("ends %v %v", end1, end2)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		env := New(42)
		c := NewCond(env)
		var log []Time
		for i := 0; i < 20; i++ {
			env.Go("w", func(p *Proc) {
				d := Duration(env.Rand().Intn(1000)) * Nanosecond
				p.Sleep(d)
				log = append(log, p.Now())
				if env.Rand().Intn(2) == 0 {
					c.Signal(nil)
				} else {
					c.WaitTimeout(Duration(env.Rand().Intn(500)))
				}
			})
		}
		env.Run()
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic:\n%v\n%v", a, b)
	}
}

func TestCloseReleasesParkedProcesses(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *Proc) { c.Wait() })
	}
	env.Go("s", func(p *Proc) { p.Sleep(Second) })
	env.RunUntil(Time(Microsecond))
	if env.live != 4 {
		t.Fatalf("live %d", env.live)
	}
	env.Close()
	if env.live != 0 {
		t.Fatalf("live after close %d", env.live)
	}
}

func TestCloseNeverStartedProcess(t *testing.T) {
	env := New(1)
	env.Go("never", func(p *Proc) { t.Error("body must not run") })
	env.Close()
	if env.live != 0 {
		t.Fatalf("live %d", env.live)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := New(1)
	env.Go("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate from Run")
		}
	}()
	env.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := New(1)
	env.Go("p", func(p *Proc) { p.Sleep(10) })
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	env.At(Time(5), func() {})
}

func TestNestedSpawn(t *testing.T) {
	env := New(1)
	depth := 0
	var spawn func(p *Proc)
	spawn = func(p *Proc) {
		depth++
		if depth < 5 {
			p.Env().Go("child", spawn)
		}
	}
	env.Go("root", spawn)
	env.Run()
	if depth != 5 {
		t.Fatalf("depth %d", depth)
	}
}

func TestYieldInterleaving(t *testing.T) {
	env := New(1)
	var log []string
	env.Go("a", func(p *Proc) {
		log = append(log, "a1")
		p.Yield()
		log = append(log, "a2")
	})
	env.Go("b", func(p *Proc) {
		log = append(log, "b1")
	})
	env.Run()
	if fmt.Sprint(log) != "[a1 b1 a2]" {
		t.Fatalf("log %v", log)
	}
}

// TestSwitchAndSpawnCounters pins what Switches and Spawns count: a lone
// sleeper is handed the token once and then resumes itself (fused, not
// counted); callbacks never count; two processes alternating count one
// hand-off per wake.
func TestSwitchAndSpawnCounters(t *testing.T) {
	env := New(1)
	env.Go("lone", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
		}
	})
	env.After(50*Microsecond, func() {})
	env.Run()
	if env.Spawns() != 1 || env.Switches() != 1 {
		t.Fatalf("lone sleeper: %d spawns, %d switches, want 1 and 1", env.Spawns(), env.Switches())
	}
	for i := 0; i < 2; i++ {
		env.Go("pair", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	env.Run()
	// 2 starts + 10 wakes each, every one finding the other process (or,
	// for the first start, Run) holding the token.
	if env.Spawns() != 3 || env.Switches() != 1+22 {
		t.Fatalf("pair: %d spawns, %d switches, want 3 and 23", env.Spawns(), env.Switches())
	}
}

// TestExecFuncFIFOWithProcesses queues continuations and processes for one
// core: grants follow arrival order whatever the waiter's kind, every hold
// lasts its duration (a negative one is clamped like Sleep but credited as
// given, as Exec does), the tag is credited before the continuation runs,
// and the continuation runs in scheduler context.
func TestExecFuncFIFOWithProcesses(t *testing.T) {
	env := New(1)
	cpu := NewCPU(env, 1)
	irq := cpu.ThreadOn(0, "irq")
	guest := cpu.ThreadOn(0, "guest")
	type grant struct {
		who  int
		done Time
	}
	var log []grant
	snap := cpu.Snapshot()
	busy := func(tag string) Duration { return cpu.Since(snap).ByTag[tag] }
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 1 {
			env.Go("proc", func(p *Proc) {
				guest.Exec(p, 2*Microsecond)
				log = append(log, grant{i, p.Now()})
			})
			continue
		}
		env.After(0, func() {
			irq.ExecFunc(Microsecond, func() {
				log = append(log, grant{i, env.Now()})
				if env.cur != nil {
					t.Errorf("continuation %d runs with a current process", i)
				}
				if want := Duration(i/2+1) * Microsecond; busy("irq") != want {
					t.Errorf("continuation %d sees irq busy %v, want %v", i, busy("irq"), want)
				}
			})
		})
	}
	end := env.Run()
	// Arrival order at t=0 is push order 0..5; holds alternate 1 us / 2 us.
	at := Time(0)
	for i, g := range log {
		at += Time(1+i%2) * Time(Microsecond)
		if g.who != i || g.done != at {
			t.Fatalf("grant log %v", log)
		}
	}
	if len(log) != 6 || end != Time(9*Microsecond) || busy("guest") != 6*Microsecond {
		t.Fatalf("log %v, end %v, guest busy %v", log, end, busy("guest"))
	}

	ran := false
	irq.ExecFunc(-5, func() { ran = true })
	if end2 := env.Run(); !ran || end2 != end || busy("irq") != 3*Microsecond-5 {
		t.Fatalf("negative hold: ran %v, end %v (was %v), irq busy %v", ran, end2, end, busy("irq"))
	}
	if len(env.execFree) != 6 {
		t.Fatalf("%d pooled exec states, want the 6 that were in flight at once", len(env.execFree))
	}
}

// TestCondWaitFuncFIFO mixes parked processes and WaitFunc continuations on
// one condition: signals reach them in arrival order, a signal with nobody
// waiting is lost for both kinds alike, and Broadcast reaches every waiter.
func TestCondWaitFuncFIFO(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	var order []int
	if c.Signal(nil) {
		t.Fatal("signal found a waiter on a fresh cond")
	}
	for i := 0; i < 4; i++ {
		i := i
		if i%2 == 0 {
			env.Go("w", func(p *Proc) { c.Wait(); order = append(order, i) })
		} else {
			env.After(0, func() { c.WaitFunc(func() { order = append(order, i) }) })
		}
	}
	env.After(Microsecond, func() { c.Signal(nil); c.Signal(nil) })
	env.After(2*Microsecond, func() {
		if fmt.Sprint(order) != "[0 1]" {
			t.Errorf("after two signals: %v", order)
		}
		c.Broadcast()
	})
	env.Run()
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("wake order %v", order)
	}
	free := len(env.tokFree)
	c.WaitFunc(func() {})
	c.Signal(nil)
	if len(env.tokFree) != free {
		t.Fatalf("WaitFunc token not recycled at the signal: free list %d, want %d", len(env.tokFree), free)
	}
}

// TestGoexitInProcessEndsRun: runtime.Goexit in a process body — a test's
// t.Fatal — propagates through the coroutine to Run's caller, whose
// goroutine exits running its deferred calls; it used to exit holding the
// run token and hang Run. Close still releases the other processes.
func TestGoexitInProcessEndsRun(t *testing.T) {
	env := New(1)
	ticks := 0
	env.Go("looper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	env.Go("fatal", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		runtime.Goexit()
	})
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		env.Run()
		returned = true
	}()
	<-done
	if returned || ticks < 9 {
		t.Fatalf("Run returned=%v after %d ticks; want its goroutine ended by the Goexit at 10 us", returned, ticks)
	}
	env.Close()
	if env.live != 0 {
		t.Fatalf("live after close %d", env.live)
	}
}

// TestFinishedProcessesLeaveNoGoroutine: a process's coroutine ends with its
// body, so a run whose processes all finished holds no goroutine for them,
// Close or not.
func TestFinishedProcessesLeaveNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := New(1)
	for i := range 8 {
		env.Go(fmt.Sprint("short", i), func(p *Proc) { p.Sleep(Duration(i)) })
	}
	env.Run()
	if env.live != 0 {
		t.Fatalf("live %d", env.live)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after the run, %d before the first Go", n, before)
	}
}

// TestWaiterListStaysBounded: a saturated resource always has somebody
// queued, so its waiter list never drains; the storage must track the
// backlog, not the number of acquires ever made (it used to keep every
// consumed slot: 8 bytes per device command on a saturated device).
func TestWaiterListStaysBounded(t *testing.T) {
	env := New(1)
	r := NewResource(env, 1)
	const waiters, rounds = 5, 20000
	for i := 0; i < waiters; i++ {
		left := rounds
		var granted, expired func()
		granted = func() { env.After(Microsecond, expired) }
		expired = func() {
			r.Release()
			if left--; left > 0 && r.AcquireFunc(granted) {
				granted()
			}
		}
		env.After(0, func() {
			if r.AcquireFunc(granted) {
				granted()
			}
		})
	}
	env.Run()
	if r.inUse != 0 || queued(r) != 0 {
		t.Fatalf("InUse %d, QueueLen %d at the end", r.inUse, queued(r))
	}
	if c := cap(r.q); c > 4*waiters {
		t.Fatalf("waiter storage grew to %d slots for a backlog of %d over %d acquires", c, waiters-1, waiters*rounds)
	}
}

// TestExpiredWaitersDoNotAccumulate: a timed waiter that expires keeps its
// waiter-list slot until a Signal or Broadcast pops it, so a condition that
// is never signalled must drop expired slots itself. A chain of waits on
// such a condition, each starting when the last one expires, must keep its
// list bounded, not one slot per wait ever made.
func TestExpiredWaitersDoNotAccumulate(t *testing.T) {
	env := New(1)
	c := NewCond(env)
	const waits = 10000
	left := waits
	var wait func()
	woke := func(signaled bool) {
		if signaled {
			t.Fatal("a condition nobody signals woke a waiter by a signal")
		}
		if left--; left > 0 {
			wait()
		}
	}
	wait = func() { c.WaitTimeoutFunc(Microsecond, woke) }
	env.After(0, wait)
	env.Run()
	if left != 0 {
		t.Fatalf("%d of %d waits never expired", left, waits)
	}
	if n := len(c.waiters) - c.head; n > 4 || cap(c.waiters) > 8 {
		t.Fatalf("waiter list holds %d slots in storage of %d after %d expired waits", n, cap(c.waiters), waits)
	}
}

// timeoutCrowd is a crowd of timeout waiters on one condition — as
// WaitTimeout processes or as WaitTimeoutFunc continuations — and a signaller
// that wakes one of them every few hundred nanoseconds, now and then all of
// them. Most waits are signalled long before their timeout, so dead timer
// events pile up until the queue compacts them.
type timeoutCrowd struct {
	env   *Env
	log   []string
	quiet bool
}

func newTimeoutCrowd(funcs bool) *timeoutCrowd {
	w := &timeoutCrowd{env: New(1)}
	env := w.env
	c := NewCond(env)
	rng := rand.New(rand.NewSource(7))
	timeout := func() Duration { return Duration(rng.Intn(50)+1) * Microsecond }
	note := func(i int, signaled bool) {
		if !w.quiet {
			w.log = append(w.log, fmt.Sprintf("%d %d %v", env.Now(), i, signaled))
		}
	}
	for i := 0; i < 40; i++ {
		i := i
		if funcs {
			var wait func()
			woke := func(signaled bool) { note(i, signaled); wait() }
			wait = func() { c.WaitTimeoutFunc(timeout(), woke) }
			env.After(0, wait)
		} else {
			env.Go("waiter", func(p *Proc) {
				for {
					_, signaled := c.WaitTimeout(timeout())
					note(i, signaled)
				}
			})
		}
	}
	var tick func()
	tick = func() {
		if rng.Intn(40) == 0 {
			c.Broadcast()
		} else {
			c.Signal(nil)
		}
		env.After(Duration(rng.Intn(400)+1), tick)
	}
	env.After(0, tick)
	return w
}

// TestWaitTimeoutFuncMatchesProcess runs the crowd both ways: wake instants,
// order and signal/timeout verdicts, events dispatched and dead events left
// queued must be the same. Then the continuations run on without a per-wait
// allocation: a token is recycled once both its waiter slot and its timer
// event are gone, compacted timer events included. What is left after a
// warm-up is the event wheel's buckets reaching their high-water marks.
func TestWaitTimeoutFuncMatchesProcess(t *testing.T) {
	procs, funcs := newTimeoutCrowd(false), newTimeoutCrowd(true)
	defer procs.env.Close()
	defer funcs.env.Close()
	procs.env.RunUntil(Time(2 * Millisecond))
	funcs.env.RunUntil(Time(2 * Millisecond))
	if len(procs.log) < 5000 || !reflect.DeepEqual(procs.log, funcs.log) {
		t.Fatalf("wake logs differ or are short: %d process wakes, %d continuation wakes", len(procs.log), len(funcs.log))
	}
	timedOut := 0
	for _, l := range procs.log {
		if strings.HasSuffix(l, "false") {
			timedOut++
		}
	}
	if timedOut == 0 || timedOut == len(procs.log) {
		t.Fatalf("%d of %d waits timed out: both outcomes must occur", timedOut, len(procs.log))
	}
	pe, fe := procs.env, funcs.env
	if pe.Dispatched() != fe.Dispatched() || pe.q.dead != fe.q.dead || pe.q.size != fe.q.size {
		t.Fatalf("dispatched %d/%d, dead %d/%d, queued %d/%d (processes/continuations)",
			pe.Dispatched(), fe.Dispatched(), pe.q.dead, fe.q.dead, pe.q.size, fe.q.size)
	}
	if fe.Switches() != 0 {
		t.Fatalf("%d hand-offs among continuations", fe.Switches())
	}
	funcs.quiet = true
	fe.RunUntil(Time(20 * Millisecond))
	if n := testing.AllocsPerRun(20, func() { fe.RunUntil(fe.Now().Add(200 * Microsecond)) }); n > 10 {
		t.Fatalf("%.1f allocations per 200 us of continuation waits, want at most 10", n)
	}
}

// queued counts the waiters queued on r.
func queued(r *Resource) int { return len(r.q) - r.head }
