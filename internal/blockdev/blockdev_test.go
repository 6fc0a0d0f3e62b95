package blockdev_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

func bed() (*sim.Env, *sim.CPU, *blockdev.NVMeBlockDev, *device.MemStore, *sim.Thread) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	store := device.NewMemStore(512)
	dev := device.New(env, p, store)
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 3, blockdev.DefaultCosts())
	return env, cpu, bdev, store, cpu.ThreadOn(0, "test")
}

func runP(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	env.Go("t", func(p *sim.Proc) { fn(p); ok = true; env.Stop() })
	env.RunUntil(sim.Time(60 * sim.Second))
	if !ok {
		t.Fatal("did not finish")
	}
	env.Close()
}

func wait(p *sim.Proc, th *sim.Thread, d blockdev.BlockDevice, b *blockdev.Bio) nvme.Status {
	c := sim.NewCond(p.Env())
	var st nvme.Status
	done := false
	b.OnDone = func(s nvme.Status) { st = s; done = true; c.Signal(nil) }
	blockdev.SubmitAndWait(p, d, th, b)
	for !done {
		c.Wait()
	}
	return st
}

func TestLargeBioUsesPRPList(t *testing.T) {
	env, _, bdev, store, th := bed()
	runP(t, env, func(p *sim.Proc) {
		// 64 KiB needs a PRP list (16 pages).
		src := make([]byte, 64<<10)
		for i := range src {
			src[i] = byte(i * 7)
		}
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 1000, Data: append([]byte{}, src...)}); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		got := make([]byte, len(src))
		store.ReadBlocks(1000, got)
		if !bytes.Equal(got, src) {
			t.Fatal("64K write corrupted")
		}
		rd := make([]byte, len(src))
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 1000, Data: rd}); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(rd, src) {
			t.Fatal("64K read corrupted")
		}
	})
}

func TestManyOutstandingBiosPipelining(t *testing.T) {
	env, _, bdev, _, th := bed()
	runP(t, env, func(p *sim.Proc) {
		const n = 64
		done := 0
		c := sim.NewCond(env)
		start := p.Now()
		for i := 0; i < n; i++ {
			b := &blockdev.Bio{Op: blockdev.BioRead, Sector: uint64(i * 8), Data: make([]byte, 4096)}
			b.OnDone = func(st nvme.Status) { done++; c.Signal(nil) }
			blockdev.SubmitAndWait(p, bdev, th, b)
		}
		for done < n {
			c.Wait()
		}
		if el := p.Now().Sub(start); el > sim.Duration(n)*90*sim.Microsecond/4 {
			t.Fatalf("no pipelining: %v", el)
		}
		if bdev.Submitted != n || bdev.Completed != n {
			t.Fatalf("stats %d/%d", bdev.Submitted, bdev.Completed)
		}
	})
}

func TestDiscardAndFlushThroughBlockLayer(t *testing.T) {
	env, _, bdev, store, th := bed()
	runP(t, env, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{1}, 64*512)
		wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: data})
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioFlush}); !st.OK() {
			t.Fatalf("flush: %v", st)
		}
		if st := wait(p, th, bdev, &blockdev.Bio{Op: blockdev.BioDiscard, Sector: 0, NSect: 64}); !st.OK() {
			t.Fatalf("discard: %v", st)
		}
		got := make([]byte, 512)
		store.ReadBlocks(0, got)
		if !bytes.Equal(got, make([]byte, 512)) {
			t.Fatal("discard did not trim")
		}
	})
}

// TestURingReapSurvivesInterleaving: what Reap returns must stay intact while
// the reaper works through it, because the reaper yields per entry (a UIF
// continuation runs on the polling thread) while completions keep arriving
// and a second polling thread reaps the same ring. Every completion is seen
// exactly once, by one reaper.
func TestURingReapSurvivesInterleaving(t *testing.T) {
	env, cpu, bdev, _, th := bed()
	ring := blockdev.NewURing(env, bdev, blockdev.DefaultURingCosts())
	const n = 64
	seen := map[uint64]int{}
	reaper := func(th *sim.Thread) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for {
				for _, cqe := range ringReap(p, ring, th, 8) {
					th.Exec(p, 7*sim.Microsecond) // the other reaper and the device run here
					seen[cqe.UserData]++
				}
				p.Sleep(sim.Microsecond)
			}
		}
	}
	env.Go("reaper-a", reaper(cpu.NewThread("a")))
	env.Go("reaper-b", reaper(cpu.NewThread("b")))
	runP(t, env, func(p *sim.Proc) {
		for i := uint64(0); i < n; i++ {
			ringSubmit(p, ring, th, blockdev.BioWrite, i*8, make([]byte, 4096), i)
		}
		p.Sleep(2 * sim.Millisecond)
	})
	for i := uint64(0); i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("completion %d seen %d times (of %d distinct)", i, seen[i], len(seen))
		}
	}
	if len(seen) != n || ring.Pending() != 0 {
		t.Fatalf("%d distinct completions, %d pending; want %d, 0", len(seen), ring.Pending(), n)
	}
}

func TestURingUserDataAndOrdering(t *testing.T) {
	env, cpu, bdev, _, th := bed()
	_ = cpu
	ring := blockdev.NewURing(env, bdev, blockdev.DefaultURingCosts())
	runP(t, env, func(p *sim.Proc) {
		for i := uint64(0); i < 16; i++ {
			ringSubmit(p, ring, th, blockdev.BioWrite, i*8, make([]byte, 4096), 1000+i)
		}
		seen := map[uint64]bool{}
		for len(seen) < 16 {
			for _, cqe := range ringReap(p, ring, th, 4) {
				if cqe.UserData < 1000 || cqe.UserData >= 1016 {
					t.Fatalf("bad user data %d", cqe.UserData)
				}
				if !cqe.Status.OK() {
					t.Fatalf("cqe %v", cqe.Status)
				}
				seen[cqe.UserData] = true
			}
			p.Sleep(5 * sim.Microsecond)
		}
		if ring.Pending() != 0 {
			t.Fatal("stale completions")
		}
	})
}

// ringSubmit and ringReap are the ring's calls made from a process.
func ringSubmit(p *sim.Proc, ring *blockdev.URing, th *sim.Thread, op blockdev.BioOp, sector uint64, data []byte, userData uint64) {
	p.Await(func(then func()) { ring.Submit(th, op, sector, data, userData, then) })
}

func ringReap(p *sim.Proc, ring *blockdev.URing, th *sim.Thread, max int) (out []blockdev.URingCQE) {
	if ring.Pending() > 0 {
		p.Await(func(then func()) { out = ring.Reap(th, nil, max, then) })
	}
	return out
}
