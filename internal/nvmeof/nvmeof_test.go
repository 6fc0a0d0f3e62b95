package nvmeof_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
)

func remoteBed() (*sim.Env, *sim.Thread, *nvmeof.Initiator, *device.MemStore, *nvmeof.Link) {
	env := sim.New(1)
	localCPU := sim.NewCPU(env, 2)
	remoteCPU := sim.NewCPU(env, 2)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	store := device.NewMemStore(512)
	dev := device.New(env, p, store)
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), remoteCPU, 1, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(env)
	tgt := nvmeof.NewTarget(env, bdev, remoteCPU)
	return env, localCPU.ThreadOn(0, "host"), nvmeof.NewInitiator(env, link, tgt), store, link
}

func runP(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	env.Go("test", func(p *sim.Proc) { fn(p); ok = true; env.Stop() })
	env.RunUntil(sim.Time(30 * sim.Second))
	if !ok {
		t.Fatal("did not finish")
	}
	env.Close()
}

func bioWait(p *sim.Proc, th *sim.Thread, d blockdev.BlockDevice, b *blockdev.Bio) nvme.Status {
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

func TestRemoteWriteReadIntegrity(t *testing.T) {
	env, th, init, store, _ := remoteBed()
	runP(t, env, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0x42, 0x24}, 1024)
		if st := bioWait(p, th, init, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 77, Data: append([]byte{}, data...)}); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// The bytes physically landed on the remote store.
		got := make([]byte, len(data))
		store.ReadBlocks(77, got)
		if !bytes.Equal(got, data) {
			t.Fatal("remote store missing data")
		}
		// Read back across the fabric.
		buf := make([]byte, len(data))
		if st := bioWait(p, th, init, &blockdev.Bio{Op: blockdev.BioRead, Sector: 77, Data: buf}); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("remote read mismatch")
		}
	})
}

func TestFabricAddsLatency(t *testing.T) {
	env, th, init, _, _ := remoteBed()
	runP(t, env, func(p *sim.Proc) {
		start := p.Now()
		bioWait(p, th, init, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: make([]byte, 512)})
		el := p.Now().Sub(start)
		// Remote write >= device write (~26us) + 2x link latency (10us).
		if el < 35*sim.Microsecond {
			t.Fatalf("remote write in %v, fabric latency missing", el)
		}
	})
}

func TestLinkSerializesBandwidth(t *testing.T) {
	env := sim.New(1)
	link := nvmeof.NewLink(env, 0, 1e9) // 1 GB/s, zero latency
	var done []sim.Time
	// Two 1 MB messages back to back: second must wait for the first.
	link.Send(nvmeof.DirToTarget, 1<<20, func() { done = append(done, env.Now()) })
	link.Send(nvmeof.DirToTarget, 1<<20, func() { done = append(done, env.Now()) })
	env.Run()
	if len(done) != 2 {
		t.Fatal("messages lost")
	}
	first := float64(done[0]) / 1e6  // ms
	second := float64(done[1]) / 1e6 // ms
	if first < 1.0 || second < 2.0 {
		t.Fatalf("serialization broken: %v %v ms", first, second)
	}
	if link.Bytes[nvmeof.DirToTarget] != 2<<20 {
		t.Fatal("byte accounting")
	}
	env.Close()
}

func TestDirectionsIndependent(t *testing.T) {
	env := sim.New(1)
	link := nvmeof.NewLink(env, 0, 1e9)
	var aT, bT sim.Time
	link.Send(nvmeof.DirToTarget, 1<<20, func() { aT = env.Now() })
	link.Send(nvmeof.DirToHost, 1<<20, func() { bT = env.Now() })
	env.Run()
	// Full duplex: both finish at ~1ms, not serialized.
	if aT != bT {
		t.Fatalf("directions interfered: %v vs %v", aT, bT)
	}
	env.Close()
}

func TestConcurrentRemoteIOs(t *testing.T) {
	env, th, init, _, _ := remoteBed()
	runP(t, env, func(p *sim.Proc) {
		const n = 32
		doneCnt := 0
		c := sim.NewCond(env)
		start := p.Now()
		for i := 0; i < n; i++ {
			b := &blockdev.Bio{Op: blockdev.BioWrite, Sector: uint64(i) * 8, Data: make([]byte, 4096)}
			b.OnDone = func(st nvme.Status) {
				if !st.OK() {
					t.Errorf("status %v", st)
				}
				doneCnt++
				c.Signal(nil)
			}
			init.SubmitBio(p, th, b)
		}
		for doneCnt < n {
			c.Wait()
		}
		el := p.Now().Sub(start)
		// Pipelined: far less than n x single-request latency (~45us).
		if el > sim.Duration(n)*45*sim.Microsecond/2 {
			t.Fatalf("no pipelining across the fabric: %v for %d IOs", el, n)
		}
	})
}
