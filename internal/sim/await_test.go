package sim

import (
	"fmt"
	"testing"
)

// TestAwaitIsEventNeutral: a process that reaches a continuation-form charge
// through Await sees what it saw blocking in Exec — the same instants, the
// same events dispatched, the same CPU books — while other processes and a
// continuation contend for the core, and a continuation that finishes
// before start returns never parks the process.
func TestAwaitIsEventNeutral(t *testing.T) {
	run := func(await bool) string {
		env := New(1)
		cpu := NewCPU(env, 1)
		th := cpu.ThreadOn(0, "t")
		var log []string
		for i := 0; i < 3; i++ {
			env.Go(fmt.Sprint("p", i), func(p *Proc) {
				for k := 0; k < 6; k++ {
					d := Duration(100 + 10*i + k)
					if await {
						p.Await(func(then func()) { th.ExecFunc(d, then) })
						p.Await(func(then func()) { then() })
					} else {
						th.Exec(p, d)
					}
					log = append(log, fmt.Sprintf("%v p%d/%d", p.Now(), i, k))
				}
			})
		}
		var spin func()
		n := 0
		spin = func() {
			if n++; n < 10 {
				th.ExecFunc(75, spin)
			}
		}
		env.After(30, spin)
		env.Run()
		return fmt.Sprint(log, " dispatched=", env.Dispatched(), " busy=", cpu.Snapshot().busy)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("Await diverged from Exec:\n await: %s\n exec:  %s", got, want)
	}
}
