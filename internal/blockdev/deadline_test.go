package blockdev_test

import (
	"runtime"
	"testing"
	"weak"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// completeBatch runs n 4 KiB bios (reads and writes alternating) to
// completion and returns only weak pointers to their payloads. It is a
// function of its own so that no frame of the caller can keep a bio alive.
//
//go:noinline
func completeBatch(t *testing.T, p *sim.Proc, th *sim.Thread, dev blockdev.BlockDevice, n int) []weak.Pointer[[4096]byte] {
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
		dev.SubmitBio(p, th, &blockdev.Bio{Op: op, Sector: uint64(i) * 8, Data: data[:], OnDone: func(st nvme.Status) {
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

// TestDeadlineDoesNotPinBio: under the default policy (100 ms deadline) a
// completed bio's payload must be collectable at once. A deadline armed as
// a closure over the pending command kept every payload reachable from the
// event queue until the deadline would have fired.
func TestDeadlineDoesNotPinBio(t *testing.T) {
	env, _, bdev, _, th := bed()
	runP(t, env, func(p *sim.Proc) {
		weaks := completeBatch(t, p, th, bdev, 64)
		if now, timeout := p.Now(), bdev.Recovery().Timeout; sim.Duration(now) > timeout/10 {
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
			t.Errorf("%d of %d completed payloads still reachable at %v", pinned, len(weaks), p.Now())
		}
	})
}

// TestDeadlinesStayBounded: the deadline queue holds the attempts in
// flight, not the last Timeout's worth of submissions.
func TestDeadlinesStayBounded(t *testing.T) {
	env, _, bdev, _, th := bed()
	const depth, total = 16, 100000
	runP(t, env, func(p *sim.Proc) {
		inflight, deepest := 0, 0
		slot := sim.NewCond(env)
		data := make([]byte, 512)
		for i := 0; i < total; i++ {
			for inflight == depth {
				slot.Wait()
			}
			inflight++
			bdev.SubmitBio(p, th, &blockdev.Bio{Op: blockdev.BioRead, Sector: uint64(i % 4096), Data: data, OnDone: func(nvme.Status) {
				inflight--
				slot.Signal(nil)
			}})
			deepest = max(deepest, bdev.DeadlineLen())
		}
		for inflight > 0 {
			slot.Wait()
		}
		if deepest > 2*depth {
			t.Errorf("deadline queue reached %d entries with at most %d bios in flight over %d bios", deepest, depth, total)
		}
		if sim.Duration(p.Now()) < bdev.Recovery().Timeout {
			t.Errorf("run ended at %v, inside the first deadline: the test shows nothing", p.Now())
		}
	})
	if bdev.Timeouts != 0 {
		t.Errorf("%d timeouts on a healthy device", bdev.Timeouts)
	}
}

// lostBio submits a write whose completion the device drops and returns
// where its abort time will be recorded.
func lostBio(p *sim.Proc, th *sim.Thread, bdev *blockdev.NVMeBlockDev, sector uint64) (submitted sim.Time, aborted *sim.Time, st *nvme.Status) {
	aborted, st = new(sim.Time), new(nvme.Status)
	bdev.SubmitBio(p, th, &blockdev.Bio{Op: blockdev.BioWrite, Sector: sector, Data: make([]byte, 4096), OnDone: func(s nvme.Status) {
		*aborted, *st = p.Now(), s
	}})
	return p.Now(), aborted, st
}

// TestTimeoutsFireAtSubmitPlusTimeout: lost completions with several
// deadlines outstanding at once — each attempt is failed at exactly its own
// submission instant plus Timeout, and a retry ladder takes exactly
// Timeout x attempts + the backoffs + the resubmission costs, as with one
// timer per attempt.
func TestTimeoutsFireAtSubmitPlusTimeout(t *testing.T) {
	env, bdev, th := faultBed(fault.NewPlan(1).WithDrops(1, 0))
	rec := blockdev.Recovery{Timeout: 500 * sim.Microsecond, MaxRetries: 0, Backoff: 50 * sim.Microsecond, Reclaim: 2 * sim.Millisecond}
	if err := bdev.SetRecovery(rec); err != nil {
		t.Fatal(err)
	}
	runP(t, env, func(p *sim.Proc) {
		var submitted []sim.Time
		var aborted []*sim.Time
		for i, gap := range []sim.Duration{0, 7 * sim.Microsecond, 0, 123 * sim.Microsecond, 1} {
			p.Sleep(gap)
			s, a, _ := lostBio(p, th, bdev, uint64(i)*8)
			submitted, aborted = append(submitted, s), append(aborted, a)
		}
		p.Sleep(sim.Millisecond)
		for i := range submitted {
			if got := aborted[i].Sub(submitted[i]); got != rec.Timeout {
				t.Errorf("bio %d submitted at %v aborted after %v, want exactly %v", i, submitted[i], got, rec.Timeout)
			}
		}

		// The full ladder: three resubmissions from the retry thread.
		rec.MaxRetries = 3
		if err := bdev.SetRecovery(rec); err != nil {
			t.Fatal(err)
		}
		s, a, st := lostBio(p, th, bdev, 64)
		p.Sleep(5 * sim.Millisecond)
		want := 4*rec.Timeout + (1+2+4)*rec.Backoff + 3*blockdev.DefaultCosts().Submit
		if got := a.Sub(s); got != want || *st != nvme.SCAbortRequested {
			t.Errorf("retry ladder ended after %v with %v, want %v with AbortRequested", got, *st, want)
		}
	})
	if bdev.Timeouts != 5+4 || bdev.Retries != 3 || bdev.Aborts != 6 {
		t.Errorf("timeouts=%d retries=%d aborts=%d, want 9/3/6", bdev.Timeouts, bdev.Retries, bdev.Aborts)
	}
}

// TestSetRecoveryShortensTimeoutWithEntriesLive: a shorter Timeout installed
// while an attempt is outstanding under the longer one. The new attempt's
// deadline is the earlier instant; it must fire then, not behind the older
// entry, and the older attempt keeps the deadline it was submitted under.
func TestSetRecoveryShortensTimeoutWithEntriesLive(t *testing.T) {
	env, bdev, th := faultBed(fault.NewPlan(1).WithDrops(1, 0))
	long := blockdev.Recovery{Timeout: 10 * sim.Millisecond, MaxRetries: 0, Reclaim: 20 * sim.Millisecond}
	short := blockdev.Recovery{Timeout: sim.Millisecond, MaxRetries: 0, Reclaim: 20 * sim.Millisecond}
	runP(t, env, func(p *sim.Proc) {
		if err := bdev.SetRecovery(long); err != nil {
			t.Fatal(err)
		}
		s0, a0, _ := lostBio(p, th, bdev, 0)
		p.Sleep(100 * sim.Microsecond)
		if err := bdev.SetRecovery(short); err != nil {
			t.Fatal(err)
		}
		s1, a1, _ := lostBio(p, th, bdev, 8)
		p.Sleep(100 * sim.Microsecond)
		if err := bdev.SetRecovery(long); err != nil {
			t.Fatal(err)
		}
		s2, a2, _ := lostBio(p, th, bdev, 16)
		p.Sleep(30 * sim.Millisecond)
		for i, c := range []struct {
			got, want sim.Duration
		}{{a0.Sub(s0), long.Timeout}, {a1.Sub(s1), short.Timeout}, {a2.Sub(s2), long.Timeout}} {
			if c.got != c.want {
				t.Errorf("bio %d aborted after %v, want exactly %v", i, c.got, c.want)
			}
		}
	})
	if bdev.DeadlineLen() != 0 {
		t.Errorf("%d deadline entries left", bdev.DeadlineLen())
	}
}
