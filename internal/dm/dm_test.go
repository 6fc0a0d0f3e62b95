package dm_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/dm"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/xts"
)

func newGuestMem() *guestmem.Memory { return guestmem.New(16 << 20) }

type bench struct {
	env   *sim.Env
	cpu   *sim.CPU
	dev   *device.Device
	store *device.MemStore
	bdev  *blockdev.NVMeBlockDev
	th    *sim.Thread
}

func newBench() *bench {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 8)
	store := device.NewMemStore(512)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, store)
	return &bench{
		env: env, cpu: cpu, dev: dev, store: store,
		bdev: blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 7, blockdev.DefaultCosts()),
		th:   cpu.ThreadOn(0, "test"),
	}
}

func (b *bench) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	b.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; b.env.Stop() })
	b.env.RunUntil(sim.Time(60 * sim.Second))
	if !ok {
		t.Fatal("test did not finish")
	}
}

// bioWait submits a bio and waits for completion.
func bioWait(p *sim.Proc, th *sim.Thread, d blockdev.BlockDevice, b *blockdev.Bio) nvme.Status {
	cond := sim.NewCond(p.Env())
	var status nvme.Status
	done := false
	b.OnDone = func(st nvme.Status) { status = st; done = true; cond.Signal(nil) }
	blockdev.SubmitAndWait(p, d, th, b)
	for !done {
		cond.Wait()
	}
	return status
}

func TestNVMeBlockDevRoundTrip(t *testing.T) {
	b := newBench()
	b.run(t, func(p *sim.Proc) {
		src := bytes.Repeat([]byte{0xcd}, 8192)
		if st := bioWait(p, b.th, b.bdev, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 100, Data: append([]byte{}, src...)}); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		got := make([]byte, 8192)
		if st := bioWait(p, b.th, b.bdev, &blockdev.Bio{Op: blockdev.BioRead, Sector: 100, Data: got}); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(src, got) {
			t.Fatal("round trip mismatch")
		}
		if st := bioWait(p, b.th, b.bdev, &blockdev.Bio{Op: blockdev.BioFlush}); !st.OK() {
			t.Fatalf("flush: %v", st)
		}
	})
}

func TestCryptTargetEncryptsOnDisk(t *testing.T) {
	b := newBench()
	key := bytes.Repeat([]byte{9}, 64)
	crypt, err := dm.NewCrypt(b.env, b.bdev, key, dm.DefaultCryptParams(), b.cpu)
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{0x42, 0x43}, 1024) // 4 sectors
	b.run(t, func(p *sim.Proc) {
		if st := bioWait(p, b.th, crypt, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 10, Data: append([]byte{}, plain...)}); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// On-disk bytes are ciphertext...
		raw := make([]byte, len(plain))
		b.store.ReadBlocks(10, raw)
		if bytes.Equal(raw, plain) {
			t.Fatal("plaintext leaked to disk")
		}
		// ...that match an independent XTS computation (dm-crypt format).
		want := make([]byte, len(plain))
		xts.Must(key).EncryptBlocks(want, plain, 10, 512)
		if !bytes.Equal(raw, want) {
			t.Fatal("ciphertext not dm-crypt compatible")
		}
		// Reads decrypt transparently.
		got := make([]byte, len(plain))
		if st := bioWait(p, b.th, crypt, &blockdev.Bio{Op: blockdev.BioRead, Sector: 10, Data: got}); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(got, plain) {
			t.Fatal("decrypt mismatch")
		}
	})
	if crypt.Encrypted == 0 || crypt.Decrypted == 0 {
		t.Fatal("kcryptd did no work")
	}
}

func TestCryptPreservesCallerBuffer(t *testing.T) {
	b := newBench()
	crypt, _ := dm.NewCrypt(b.env, b.bdev, make([]byte, 32), dm.DefaultCryptParams(), b.cpu)
	b.run(t, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{5}, 512)
		orig := append([]byte{}, data...)
		bioWait(p, b.th, crypt, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: data})
		if !bytes.Equal(data, orig) {
			t.Fatal("dm-crypt clobbered the write buffer")
		}
	})
}

func TestMirrorWritesBothReadsPrimary(t *testing.T) {
	b := newBench()
	// Secondary: a remote device over NVMe-oF.
	remoteCPU := sim.NewCPU(b.env, 4)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rstore := device.NewMemStore(512)
	rdev := device.New(b.env, rp, rstore)
	rbdev := blockdev.NewNVMeBlockDev(b.env, device.WholeNamespace(rdev, 1), remoteCPU, 3, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(b.env)
	tgt := nvmeof.NewTarget(b.env, rbdev, remoteCPU)
	init := nvmeof.NewInitiator(b.env, link, tgt)

	mir := &dm.Mirror{Primary: b.bdev, Secondary: init}
	data := bytes.Repeat([]byte{0xee}, 1024)
	b.run(t, func(p *sim.Proc) {
		if st := bioWait(p, b.th, mir, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 20, Data: data}); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// Both stores hold the data.
		got := make([]byte, 1024)
		b.store.ReadBlocks(20, got)
		if !bytes.Equal(got, data) {
			t.Fatal("primary missing data")
		}
		rstore.ReadBlocks(20, got)
		if !bytes.Equal(got, data) {
			t.Fatal("secondary missing data (not replicated)")
		}
		// Reads come from the primary only.
		before := tgt.Served
		if st := bioWait(p, b.th, mir, &blockdev.Bio{Op: blockdev.BioRead, Sector: 20, Data: got}); !st.OK() {
			t.Fatal(st)
		}
		if tgt.Served != before {
			t.Fatal("read went to the remote leg")
		}
	})
}

func TestMirrorWriteWaitsForSlowerLeg(t *testing.T) {
	b := newBench()
	remoteCPU := sim.NewCPU(b.env, 2)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rdev := device.New(b.env, rp, device.NullStore{})
	rbdev := blockdev.NewNVMeBlockDev(b.env, device.WholeNamespace(rdev, 1), remoteCPU, 1, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(b.env)
	link.Latency = 300 * sim.Microsecond // slow WAN-ish link
	tgt := nvmeof.NewTarget(b.env, rbdev, remoteCPU)
	mir := &dm.Mirror{Primary: b.bdev, Secondary: nvmeof.NewInitiator(b.env, link, tgt)}
	b.run(t, func(p *sim.Proc) {
		start := p.Now()
		if st := bioWait(p, b.th, mir, &blockdev.Bio{Op: blockdev.BioWrite, Sector: 0, Data: make([]byte, 512)}); !st.OK() {
			t.Fatal(st)
		}
		if p.Now().Sub(start) < 600*sim.Microsecond {
			t.Fatalf("mirror write completed in %v, before the slow remote leg", p.Now().Sub(start))
		}
	})
}

func TestURingSubmitReap(t *testing.T) {
	b := newBench()
	ring := blockdev.NewURing(b.env, b.bdev, blockdev.DefaultURingCosts())
	b.run(t, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{1}, 512)
		for i := uint64(0); i < 8; i++ {
			p.Await(func(then func()) { ring.Submit(b.th, blockdev.BioWrite, i, data, i, then) })
		}
		var seen []uint64
		for len(seen) < 8 {
			var reaped []blockdev.URingCQE
			if ring.Pending() > 0 {
				p.Await(func(then func()) { reaped = ring.Reap(b.th, nil, 0, then) })
			}
			for _, cqe := range reaped {
				if !cqe.Status.OK() {
					t.Fatalf("cqe status %v", cqe.Status)
				}
				seen = append(seen, cqe.UserData)
			}
			p.Sleep(5 * sim.Microsecond)
		}
		if ring.Submitted != 8 || ring.Reaped != 8 {
			t.Fatalf("stats %d/%d", ring.Submitted, ring.Reaped)
		}
	})
}

// TestKernelPathTranslation drives blockdev.SubmitNVMe, the router's kernel
// path, over the NVMe block device and over a dm-crypt table on it: a write
// lands (in the clear, or encrypted), reads back through the same path,
// flush and DSM translate, and a vendor opcode is refused.
func TestKernelPathTranslation(t *testing.T) {
	for _, stacked := range []bool{false, true} {
		b := newBench()
		var dev blockdev.BlockDevice = b.bdev
		if stacked {
			crypt, err := dm.NewCrypt(b.env, b.bdev, bytes.Repeat([]byte{7}, 32), dm.DefaultCryptParams(), b.cpu)
			if err != nil {
				t.Fatal(err)
			}
			dev = crypt
		}
		gm := newGuestMem()
		th := b.cpu.ThreadOn(6, "router")
		b.run(t, func(p *sim.Proc) {
			submit := func(cmd nvme.Command) nvme.Status {
				cond := sim.NewCond(b.env)
				var st nvme.Status
				done := false
				blockdev.SubmitNVMe(dev, th, 9, cmd, gm, func(s nvme.Status) { st, done = s, true; cond.Signal(nil) })
				for !done {
					cond.Wait()
				}
				return st
			}
			base := gm.MustAllocPages(1)
			data := bytes.Repeat([]byte{0xf0}, 512)
			gm.WriteAt(data, base)
			if st := submit(nvme.NewRW(nvme.OpWrite, 1, 1, 40, 1, base, 0)); !st.OK() {
				t.Fatalf("stacked=%v write: %v", stacked, st)
			}
			got := make([]byte, 512)
			b.store.ReadBlocks(40, got)
			if bytes.Equal(got, data) == stacked {
				t.Fatalf("stacked=%v: the write did not land as the stack stores it", stacked)
			}
			base2 := gm.MustAllocPages(1)
			if st := submit(nvme.NewRW(nvme.OpRead, 2, 1, 40, 1, base2, 0)); !st.OK() {
				t.Fatalf("stacked=%v read: %v", stacked, st)
			}
			gm.ReadAt(got, base2)
			if !bytes.Equal(got, data) {
				t.Fatalf("stacked=%v: kernel path read mismatch", stacked)
			}
			if st := submit(nvme.NewFlush(3, 1)); !st.OK() {
				t.Fatalf("stacked=%v flush: %v", stacked, st)
			}
			var dsm nvme.Command
			dsm.SetOpcode(nvme.OpDSM)
			dsm.SetSLBA(40)
			if st := submit(dsm); !st.OK() {
				t.Fatalf("stacked=%v discard: %v", stacked, st)
			}
			// Vendor commands need the fast path.
			var vc nvme.Command
			vc.SetOpcode(0xc1)
			if st := submit(vc); st != nvme.SCInvalidOpcode {
				t.Fatalf("stacked=%v vendor via kernel path: %v", stacked, st)
			}
		})
	}
}
