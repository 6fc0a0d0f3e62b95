package nvmeof_test

import (
	"bytes"
	"runtime"
	"testing"
	"weak"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/nvme"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
)

// completeBatch runs n 4 KiB remote bios (writes and reads alternating) to
// completion and returns only weak pointers to the callers' buffers. It is
// a function of its own so that no frame of the caller keeps a bio alive.
//
//go:noinline
func completeBatch(t *testing.T, p *sim.Proc, th *sim.Thread, init *nvmeof.Initiator, n int) []weak.Pointer[[4096]byte] {
	weaks := make([]weak.Pointer[[4096]byte], n)
	left := n
	done := sim.NewCond(p.Env())
	for i := range weaks {
		data := new([4096]byte)
		weaks[i] = weak.Make(data)
		op := blockdev.BioRead
		if i%2 == 0 {
			op = blockdev.BioWrite
		}
		init.SubmitBio(p, th, &blockdev.Bio{Op: op, Sector: uint64(i) * 8, Data: data[:], OnDone: func(st nvme.Status) {
			if !st.OK() {
				t.Errorf("bio %d: %v", i, st)
			}
			left--
			done.Signal(nil)
		}})
	}
	for left > 0 {
		done.Wait()
	}
	return weaks
}

// TestDeadlineDoesNotPinPayload: under the default policy (50 ms response
// deadline) a finished command's buffer must be collectable at once. A
// deadline armed as a closure over the pending command kept the caller's
// buffer reachable from the event queue until the deadline would have fired.
func TestDeadlineDoesNotPinPayload(t *testing.T) {
	env, th, init, _, _ := remoteBed()
	runP(t, env, func(p *sim.Proc) {
		weaks := completeBatch(t, p, th, init, 64)
		if now, timeout := p.Now(), init.Recovery().Timeout; sim.Duration(now) > timeout/10 {
			t.Fatalf("batch took until %v; the test must end long before the %v deadline", now, timeout)
		}
		runtime.GC()
		runtime.GC()
		pinned := 0
		for _, w := range weaks {
			if w.Value() != nil {
				pinned++
			}
		}
		if pinned > 0 {
			t.Errorf("%d of %d finished buffers still reachable at %v", pinned, len(weaks), p.Now())
		}
	})
}

// lostWrite submits a write into an outage and returns where its failure
// time will be recorded.
func lostWrite(p *sim.Proc, th *sim.Thread, init *nvmeof.Initiator, sector uint64) (sent sim.Time, failed *sim.Time) {
	failed = new(sim.Time)
	init.SubmitBio(p, th, &blockdev.Bio{Op: blockdev.BioWrite, Sector: sector, Data: make([]byte, 4096), OnDone: func(st nvme.Status) {
		if st == nvme.SCPathError {
			*failed = p.Now()
		}
	}})
	return p.Now(), failed
}

// TestResponseDeadlinesFireAtSendPlusTimeout: with the link down and no
// retries, every command fails at exactly its own send instant plus the
// Timeout it was sent under — several outstanding at once, and a shorter
// Timeout installed while commands sent under the longer one are still
// waiting.
func TestResponseDeadlinesFireAtSendPlusTimeout(t *testing.T) {
	env, th, init, _, link := remoteBed()
	link.ScheduleOutage(0, sim.Second)
	long := nvmeof.InitiatorRecovery{Timeout: 10 * sim.Millisecond}
	short := nvmeof.InitiatorRecovery{Timeout: sim.Millisecond}
	runP(t, env, func(p *sim.Proc) {
		type sent struct {
			at      sim.Time
			failed  *sim.Time
			timeout sim.Duration
		}
		var all []sent
		for i, step := range []struct {
			gap sim.Duration
			rec nvmeof.InitiatorRecovery
		}{{0, long}, {7 * sim.Microsecond, long}, {100 * sim.Microsecond, short}, {0, short}, {50 * sim.Microsecond, long}} {
			p.Sleep(step.gap)
			if err := init.SetRecovery(step.rec); err != nil {
				t.Fatal(err)
			}
			at, failed := lostWrite(p, th, init, uint64(i)*8)
			all = append(all, sent{at, failed, step.rec.Timeout})
		}
		p.Sleep(20 * sim.Millisecond)
		for i, s := range all {
			if got := s.failed.Sub(s.at); got != s.timeout {
				t.Errorf("command %d sent at %v failed after %v, want exactly %v", i, s.at, got, s.timeout)
			}
		}
	})
	if init.Failures != 5 || init.DeadlineLen() != 0 {
		t.Errorf("failures=%d deadline entries=%d, want 5/0", init.Failures, init.DeadlineLen())
	}
}

// TestResendsKeepPooledPayloadsIntact: with the response deadline below the
// fabric round trip every command is resent while its first capsule is
// still on its way, so several capsules share one payload and stale
// responses abound. Payload buffers are recycled all the while; every block
// must still read back as written.
func TestResendsKeepPooledPayloadsIntact(t *testing.T) {
	env, th, init, _, _ := remoteBed()
	if err := init.SetRecovery(nvmeof.InitiatorRecovery{Timeout: 20 * sim.Microsecond, MaxRetries: 8, Backoff: 10 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	pattern := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a, byte(i * 7)}, 1024) }
	const blocks, rounds = 16, 6
	runP(t, env, func(p *sim.Proc) {
		left := 0
		done := sim.NewCond(env)
		submit := func(b *blockdev.Bio, check func()) {
			left++
			b.OnDone = func(st nvme.Status) {
				if !st.OK() {
					t.Errorf("%v sector %d: %v", b.Op, b.Sector, st)
				} else if check != nil {
					check()
				}
				left--
				done.Signal(nil)
			}
			init.SubmitBio(p, th, b)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < blocks; i++ {
				submit(&blockdev.Bio{Op: blockdev.BioWrite, Sector: uint64(i) * 8, Data: pattern(r*blocks + i)}, nil)
			}
			for left > 0 {
				done.Wait()
			}
			for i := 0; i < blocks; i++ {
				got, want := make([]byte, 4096), pattern(r*blocks+i)
				submit(&blockdev.Bio{Op: blockdev.BioRead, Sector: uint64(i) * 8, Data: got}, func() {
					if !bytes.Equal(got, want) {
						t.Errorf("round %d block %d read back wrong data", r, i)
					}
				})
			}
			for left > 0 {
				done.Wait()
			}
		}
	})
	if init.Retries == 0 || init.StaleResponses == 0 {
		t.Fatalf("retries=%d stale=%d: the test needs resends racing their originals", init.Retries, init.StaleResponses)
	}
}
