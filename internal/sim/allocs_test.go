package sim

import "testing"

// TestProcessPrimitivesAllocs is the allocation gate for the process forms:
// once warm, a process that sleeps, charges a free or a contended core,
// spins, queues for a resource, waits on a condition or waits with a timeout
// (signalled or expired) allocates nothing per wait.
func TestProcessPrimitivesAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	loop := func(env *Env, body func(p *Proc)) {
		env.Go("loop", func(p *Proc) {
			for {
				body(p)
			}
		})
	}
	cases := []struct {
		name  string
		build func(env *Env)
	}{
		{"Sleep", func(env *Env) {
			loop(env, func(p *Proc) { p.Sleep(Microsecond) })
		}},
		{"ExecFreeCore", func(env *Env) {
			th := NewCPU(env, 1).NewThread("t")
			loop(env, func(p *Proc) { th.Exec(p, Microsecond) })
		}},
		{"ExecContendedCore", func(env *Env) {
			cpu := NewCPU(env, 1)
			a, b := cpu.ThreadOn(0, "a"), cpu.ThreadOn(0, "b")
			loop(env, func(p *Proc) { a.Exec(p, Microsecond) })
			loop(env, func(p *Proc) { b.Exec(p, 2*Microsecond) })
		}},
		{"Spin", func(env *Env) {
			th := NewCPU(env, 1).NewThread("t")
			var until Time
			poll := func(int) Time { return until }
			loop(env, func(p *Proc) {
				until = p.Now().Add(3 * Microsecond)
				th.Spin(p, 250, poll)
			})
		}},
		{"Acquire", func(env *Env) {
			r := NewResource(env, 1)
			for range 2 {
				loop(env, func(p *Proc) {
					r.Acquire()
					p.Sleep(Microsecond)
					r.Release()
				})
			}
		}},
		{"Wait", func(env *Env) {
			c := NewCond(env)
			loop(env, func(p *Proc) { c.Wait() })
			loop(env, func(p *Proc) {
				p.Sleep(Microsecond)
				c.Signal(nil)
			})
		}},
		{"WaitTimeoutSignaled", func(env *Env) {
			c := NewCond(env)
			loop(env, func(p *Proc) { c.WaitTimeout(10 * Microsecond) })
			loop(env, func(p *Proc) {
				p.Sleep(Microsecond)
				c.Signal(nil)
			})
		}},
		{"WaitTimeoutExpired", func(env *Env) {
			// The signal after each timeout finds nobody; it drops the
			// expired waiter's slot, as a later signal always does.
			c := NewCond(env)
			loop(env, func(p *Proc) {
				c.WaitTimeout(Microsecond)
				c.Signal(nil)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := New(1)
			defer env.Close()
			tc.build(env)
			// Warm up with the measured steps: a spin sizes its steps by the
			// run limit, and the wheel's buckets must reach their high-water
			// marks under the limits the measurement sets.
			step := func() { env.RunUntil(env.Now().Add(100 * Microsecond)) }
			for range 500 {
				step()
			}
			n := testing.AllocsPerRun(20, step)
			if n != 0 {
				t.Fatalf("%.1f allocations per 100 us, want 0", n)
			}
		})
	}
}
