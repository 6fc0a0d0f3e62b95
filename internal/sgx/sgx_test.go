package sgx_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/sgx"
	"nvmetro/internal/sim"
	"nvmetro/internal/xts"
)

func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	env.Go("test", func(p *sim.Proc) { fn(p); ok = true; env.Stop() })
	env.RunUntil(sim.Time(10 * sim.Second))
	if !ok {
		t.Fatal("did not finish")
	}
	env.Close()
}

var key = bytes.Repeat([]byte{0x77}, 64)

func TestSwitchlessCryptMatchesXTS(t *testing.T) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	e, err := sgx.Launch(env, cpu, key)
	if err != nil {
		t.Fatal(err)
	}
	caller := cpu.ThreadOn(0, "caller")
	run(t, env, func(p *sim.Proc) {
		src := bytes.Repeat([]byte{0xc3}, 1024)
		dst := make([]byte, 1024)
		done := sim.NewCond(env)
		finished := false
		p.Await(func(then func()) {
			e.SubmitSwitchless(caller, &sgx.Job{
				Op: sgx.OpEncrypt, Dst: dst, Src: src, Sector: 33, SectorSize: 512,
				Done: func(err error) {
					if err != nil {
						t.Error(err)
					}
					finished = true
					done.Signal(nil)
				},
			}, then)
		})
		for !finished {
			done.Wait()
		}
		want := make([]byte, 1024)
		xts.Must(key).EncryptBlocks(want, src, 33, 512)
		if !bytes.Equal(dst, want) {
			t.Fatal("enclave ciphertext differs from XTS reference")
		}
	})
	if e.Switchless != 1 {
		t.Fatalf("stats switchless=%d", e.Switchless)
	}
}

func TestSwitchlessWorkerParksAfterIdle(t *testing.T) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	e, _ := sgx.Launch(env, cpu, key)
	caller := cpu.ThreadOn(0, "caller")
	run(t, env, func(p *sim.Proc) {
		// One job wakes the worker; then it spins IdlePark and sleeps.
		buf := make([]byte, 512)
		done := false
		cond := sim.NewCond(env)
		p.Await(func(then func()) {
			e.SubmitSwitchless(caller, &sgx.Job{Op: sgx.OpDecrypt, Dst: buf, Src: buf, Sector: 0, SectorSize: 512,
				Done: func(error) { done = true; cond.Signal(nil) }}, then)
		})
		for !done {
			cond.Wait()
		}
		spinBefore := e.SpinTime
		p.Sleep(10 * sim.Millisecond)
		extraSpin := e.SpinTime - spinBefore
		if extraSpin > 200*sim.Microsecond {
			t.Fatalf("switchless worker spun %v while idle; parking broken", extraSpin)
		}
	})
}

func TestLaunchRejectsBadKey(t *testing.T) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 2)
	if _, err := sgx.Launch(env, cpu, make([]byte, 10)); err == nil {
		t.Fatal("bad key accepted")
	}
	env.Close()
}
