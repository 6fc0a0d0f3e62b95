package sim

import (
	"fmt"
	"iter"
	"testing"
)

// The benchmark suite measures the scheduler hot paths that dominate harness
// wall clock: timer push/pop (Sleep, After), process switching (park, yield
// to the trampoline, next), same-instant callback batches, and mixed multi-process
// workloads shaped like the router/device loops. Run with -benchmem: the
// steady-state paths must report 0 allocs/op.

// BenchmarkSleepWake is the single-process timer path: every event resumes
// the process that is already running the dispatch loop (fused self-resume;
// no switch at all).
func BenchmarkSleepWake(b *testing.B) {
	env := New(1)
	env.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkAfterCallback is the pure callback path: same-instant-adjacent fn
// events dispatched in a tight loop without touching the run token.
func BenchmarkAfterCallback(b *testing.B) {
	env := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.After(Microsecond, tick)
		}
	}
	env.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	if n != b.N {
		b.Fatalf("ran %d callbacks, want %d", n, b.N)
	}
}

// BenchmarkCondPingPong is the two-process switch path: every event hands
// the run token to the other process (a yield to the trampoline and its next,
// two coroutine switches; one op is two hand-offs).
func BenchmarkCondPingPong(b *testing.B) {
	env := New(1)
	c1, c2 := NewCond(env), NewCond(env)
	env.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c1.Wait()
			c2.Signal(nil)
		}
	})
	env.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c1.Signal(nil)
			c2.Wait()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkManyProcsStaggered is the harness-shaped workload: many processes
// with staggered timers, so the queue holds a steady population and almost
// every dispatch switches processes.
func BenchmarkManyProcsStaggered(b *testing.B) {
	for _, procs := range []int{16, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			env := New(1)
			per := b.N / procs
			for i := 0; i < procs; i++ {
				i := i
				env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
					p.Sleep(Duration(i) * 37 * Nanosecond)
					for k := 0; k < per; k++ {
						p.Sleep(Duration(1+(i+k)%7) * Microsecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}
}

// BenchmarkSameInstantStorm schedules bursts of callbacks at one instant —
// the multicast completion / broadcast wake shape.
func BenchmarkSameInstantStorm(b *testing.B) {
	const burst = 64
	env := New(1)
	n := 0
	var arm func()
	arm = func() {
		for i := 0; i < burst; i++ {
			env.After(Microsecond, func() { n++ })
		}
		if n+burst < b.N {
			env.After(Microsecond, arm)
		}
	}
	env.After(Microsecond, arm)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkFarTimers pushes timers beyond the wheel window so every event
// takes the overflow-heap path and migrates into the wheel as time advances.
func BenchmarkFarTimers(b *testing.B) {
	env := New(1)
	env.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(120 * Microsecond) // beyond the 16 us near-future window
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkResourceHandoff measures the contended FIFO resource path
// (simulated core scheduling): acquire, hold, release, direct handoff.
func BenchmarkResourceHandoff(b *testing.B) {
	env := New(1)
	r := NewResource(env, 1)
	const workers = 4
	per := b.N / workers
	for w := 0; w < workers; w++ {
		env.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Acquire()
				p.Sleep(100 * Nanosecond)
				r.Release()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkWaitTimeoutSignaled measures the timeout-armed wait where the
// signal always wins — the adaptive-poller shape. The timeout event is
// lazily cancelled and must not accumulate in the queue.
func BenchmarkWaitTimeoutSignaled(b *testing.B) {
	env := New(1)
	c := NewCond(env)
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.WaitTimeout(100 * Microsecond)
		}
	})
	env.Go("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
			c.Signal(nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkResourceHandoffFunc is BenchmarkResourceHandoff with the four
// contenders as AcquireFunc continuations instead of processes: the same
// two events per hold (grant, expiry), but every one a callback — no run
// token changes hands.
func BenchmarkResourceHandoffFunc(b *testing.B) {
	env := New(1)
	r := NewResource(env, 1)
	const workers = 4
	per := b.N / workers
	for w := 0; w < workers; w++ {
		left := per
		var granted, expired func()
		granted = func() { env.After(100*Nanosecond, expired) }
		expired = func() {
			r.Release()
			if left--; left > 0 && r.AcquireFunc(granted) {
				granted()
			}
		}
		env.After(0, func() {
			if left > 0 && r.AcquireFunc(granted) {
				granted()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	if env.Switches() != 0 {
		b.Fatalf("%d process switches on the callback tier", env.Switches())
	}
}

// BenchmarkExecFunc is an interrupt handler as a continuation: a WaitFunc
// waiter signalled every microsecond charges one ExecFunc on a core it
// shares with nobody and waits again. Three callback events per op (the
// signaller's tick, the wake, the end of the hold), no process, no
// allocation.
func BenchmarkExecFunc(b *testing.B) {
	env := New(1)
	th := NewCPU(env, 1).ThreadOn(0, "irq")
	c := NewCond(env)
	n := 0
	var wait, entry, tick func()
	wait = func() { c.WaitFunc(entry) }
	entry = func() { th.ExecFunc(500*Nanosecond, wait) }
	tick = func() {
		c.Signal(nil)
		if n++; n < b.N {
			env.After(Microsecond, tick)
		}
	}
	wait()
	env.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
	if env.Switches() != 0 || *th.busy != Duration(b.N)*500*Nanosecond {
		b.Fatalf("%d switches, %v charged for %d ops", env.Switches(), *th.busy, b.N)
	}
}

// BenchmarkBareHandOff prices the two ways to move a run token between
// parked stacks with nothing else going on, per hand-off: "channel" is the
// rendezvous the kernel used (send to the target's channel, block on one's
// own — a pass through the Go scheduler), "coroutine" is what it uses now
// (the parked side yields to a trampoline, whose next enters the target: two
// runtime coroutine switches). DESIGN §12 quotes both at GOMAXPROCS=1.
func BenchmarkBareHandOff(b *testing.B) {
	b.Run("channel", func(b *testing.B) {
		ping, pong := make(chan bool), make(chan bool)
		go func() {
			for range ping {
				pong <- false
			}
			close(pong)
		}()
		for i := 0; i < b.N; i += 2 {
			ping <- false
			<-pong
		}
		close(ping)
		<-pong
	})
	b.Run("coroutine", func(b *testing.B) {
		var next [2]func() (*Proc, bool)
		for i := range next {
			var stop func()
			next[i], stop = iter.Pull(func(yield func(*Proc) bool) {
				for yield(nil) {
				}
			})
			defer stop()
		}
		for i := 0; i < b.N; i++ {
			next[i&1]()
		}
	})
}
