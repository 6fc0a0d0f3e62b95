package device

import (
	"bytes"
	"testing"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// testRig wires a device, a queue pair and guest memory for direct access.
type testRig struct {
	env  *sim.Env
	dev  *Device
	mem  *guestmem.Memory
	qp   *nvme.QueuePair
	cid  uint16
	done map[uint16]*sim.Cond
	stat map[uint16]nvme.Status
}

func newRig(t testing.TB, p Params, store Store) *testRig {
	env := sim.New(1)
	dev := New(env, p, store)
	mem := guestmem.New(64 << 20)
	r := &testRig{
		env: env, dev: dev, mem: mem,
		qp:   dev.CreateQueuePair(256, mem),
		done: make(map[uint16]*sim.Cond),
		stat: make(map[uint16]nvme.Status),
	}
	// Completion poller.
	env.Go("poller", func(pr *sim.Proc) {
		var e nvme.Completion
		for {
			for r.qp.CQ.Pop(&e) {
				r.stat[e.CID()] = e.Status()
				if c := r.done[e.CID()]; c != nil {
					c.Signal(nil)
				}
			}
			pr.Sleep(500 * sim.Nanosecond)
		}
	})
	return r
}

// run executes fn as a simulated process and drives the sim to completion
// of fn (bounded by a deadline).
func (r *testRig) run(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	finished := false
	r.env.Go("test", func(p *sim.Proc) {
		fn(p)
		finished = true
		r.env.Stop()
	})
	r.env.RunUntil(r.env.Now().Add(20 * sim.Second))
	if !finished {
		t.Fatal("test process did not finish within simulated deadline")
	}
}

// submit pushes cmd, rings the doorbell and waits for its completion.
func (r *testRig) submit(p *sim.Proc, cmd nvme.Command) nvme.Status {
	r.cid++
	cmd.SetCID(r.cid)
	cond := sim.NewCond(r.env)
	r.done[cmd.CID()] = cond
	if !r.qp.SQ.Push(&cmd) {
		panic("sq full")
	}
	r.dev.Ring(r.qp.SQ.ID)
	cond.Wait()
	delete(r.done, cmd.CID())
	return r.stat[cmd.CID()]
}

func (r *testRig) rw(p *sim.Proc, op uint8, lba uint64, data []byte) nvme.Status {
	blocks := uint32(len(data)) / r.dev.Params().BlockSize()
	base, pages, err := r.mem.AllocBuffer(uint32(len(data)))
	if err != nil {
		panic(err)
	}
	if op == nvme.OpWrite {
		r.mem.WriteAt(data, base)
	}
	prp1, prp2, err := nvme.BuildPRP(r.mem, pages, func() uint64 { return r.mem.MustAllocPages(1) })
	if err != nil {
		panic(err)
	}
	st := r.submit(p, nvme.NewRW(op, 0, 1, lba, blocks, prp1, prp2))
	if op == nvme.OpRead && st.OK() {
		r.mem.ReadAt(data, base)
	}
	return st
}

func TestDeviceReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, Default970EvoPlus(), NewMemStore(512))
	r.run(t, func(p *sim.Proc) {
		src := make([]byte, 8192)
		for i := range src {
			src[i] = byte(i * 13)
		}
		if st := r.rw(p, nvme.OpWrite, 100, src); !st.OK() {
			t.Errorf("write: %v", st)
		}
		got := make([]byte, 8192)
		if st := r.rw(p, nvme.OpRead, 100, got); !st.OK() {
			t.Errorf("read: %v", st)
		}
		if !bytes.Equal(src, got) {
			t.Error("data mismatch after round trip")
		}
		// Unwritten area reads zeros.
		zr := make([]byte, 512)
		if st := r.rw(p, nvme.OpRead, 99, zr); !st.OK() {
			t.Errorf("read: %v", st)
		}
		if !bytes.Equal(zr[:512], make([]byte, 512)) {
			t.Error("unwritten read not zero")
		}
	})
}

func TestDeviceQD1ReadLatency(t *testing.T) {
	p := Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	r := newRig(t, p, NullStore{})
	r.run(t, func(pr *sim.Proc) {
		buf := make([]byte, 512)
		start := pr.Now()
		const n = 100
		for i := 0; i < n; i++ {
			if st := r.rw(pr, nvme.OpRead, uint64(i), buf); !st.OK() {
				t.Fatalf("read %d: %v", i, st)
			}
		}
		avg := sim.Duration(int64(pr.Now().Sub(start)) / n)
		// Expect ctrl (1.5us) + base (78us) + transfer (~0.16us) + poll slack.
		if avg < 78*sim.Microsecond || avg > 85*sim.Microsecond {
			t.Errorf("QD1 512B read latency %v, want ~80us", avg)
		}
	})
}

func TestDeviceReadIOPSSaturation(t *testing.T) {
	p := Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	env := sim.New(1)
	dev := New(env, p, NullStore{})
	mem := guestmem.New(64 << 20)
	qp := dev.CreateQueuePair(512, mem)
	buf := mem.MustAllocPages(1)

	var completed metrics.Counter
	// Keep QD ~256 outstanding; closed loop.
	inflight := 0
	var cid uint16
	submitMore := func() {
		for inflight < 256 {
			cid++
			cmd := nvme.NewRW(nvme.OpRead, cid, 1, uint64(cid)%1000, 1, buf, 0)
			if !qp.SQ.Push(&cmd) {
				break
			}
			inflight++
		}
		dev.Ring(qp.SQ.ID)
	}
	env.Go("driver", func(pr *sim.Proc) {
		submitMore()
		var e nvme.Completion
		for {
			for qp.CQ.Pop(&e) {
				inflight--
				completed.Inc()
			}
			submitMore()
			pr.Sleep(time1us)
		}
	})
	env.RunUntil(sim.Time(50 * sim.Millisecond))
	iops := float64(completed.Value()) / 0.05
	// Model: min(48/78us, 1/1.5us) = ~615k IOPS.
	if iops < 520e3 || iops > 700e3 {
		t.Errorf("read saturation %.0f IOPS, want ~615k", iops)
	}
	env.Close()
}

const time1us = sim.Microsecond

func TestDeviceSequentialBandwidthCap(t *testing.T) {
	p := Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	env := sim.New(1)
	dev := New(env, p, NullStore{})
	mem := guestmem.New(256 << 20)
	qp := dev.CreateQueuePair(256, mem)

	// Pre-build one 128K PRP set and reuse it.
	var pages []uint64
	for i := 0; i < 32; i++ {
		pages = append(pages, mem.MustAllocPages(1))
	}
	prp1, prp2, err := nvme.BuildPRP(mem, pages, func() uint64 { return mem.MustAllocPages(1) })
	if err != nil {
		t.Fatal(err)
	}
	var done metrics.Counter
	inflight := 0
	var cid uint16
	var lba uint64
	env.Go("driver", func(pr *sim.Proc) {
		var e nvme.Completion
		for {
			for inflight < 64 {
				cid++
				cmd := nvme.NewRW(nvme.OpRead, cid, 1, lba, 256, prp1, prp2)
				lba += 256
				if !qp.SQ.Push(&cmd) {
					break
				}
				inflight++
			}
			dev.Ring(qp.SQ.ID)
			for qp.CQ.Pop(&e) {
				inflight--
				done.Inc()
			}
			pr.Sleep(time1us)
		}
	})
	env.RunUntil(sim.Time(50 * sim.Millisecond))
	bw := float64(done.Value()) * 128 * 1024 / 0.05
	if bw < 2.9e9 || bw > 3.5e9 {
		t.Errorf("128K read bandwidth %.2f GB/s, want ~3.3", bw/1e9)
	}
	env.Close()
}

func TestDeviceErrors(t *testing.T) {
	p := Default970EvoPlus()
	p.Blocks = 1000
	r := newRig(t, p, NewMemStore(512))
	r.run(t, func(pr *sim.Proc) {
		buf := r.mem.MustAllocPages(1)
		if st := r.submit(pr, nvme.NewRW(nvme.OpRead, 0, 1, 999, 2, buf, 0)); st != nvme.SCLBAOutOfRange {
			t.Errorf("out of range: %v", st)
		}
		if st := r.submit(pr, nvme.NewRW(nvme.OpRead, 0, 9, 0, 1, buf, 0)); st != nvme.SCInvalidNS {
			t.Errorf("bad nsid: %v", st)
		}
		var c nvme.Command
		c.SetOpcode(0x55)
		c.SetNSID(1)
		if st := r.submit(pr, c); st != nvme.SCInvalidOpcode {
			t.Errorf("bad opcode: %v", st)
		}
	})
}

func TestDeviceCompareAndVendor(t *testing.T) {
	r := newRig(t, Default970EvoPlus(), NewMemStore(512))
	r.run(t, func(pr *sim.Proc) {
		data := bytes.Repeat([]byte{0xab}, 512)
		if st := r.rw(pr, nvme.OpWrite, 5, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// Compare equal data: success.
		base, pages, _ := r.mem.AllocBuffer(512)
		r.mem.WriteAt(data, base)
		prp1, _, _ := nvme.BuildPRP(r.mem, pages, nil)
		if st := r.submit(pr, nvme.NewRW(nvme.OpCompare, 0, 1, 5, 1, prp1, 0)); !st.OK() {
			t.Errorf("compare equal: %v", st)
		}
		// Compare different data: failure.
		r.mem.WriteAt(bytes.Repeat([]byte{0xcd}, 512), base)
		if st := r.submit(pr, nvme.NewRW(nvme.OpCompare, 0, 1, 5, 1, prp1, 0)); st != nvme.SCCompareFailure {
			t.Errorf("compare unequal: %v", st)
		}
		// Vendor opcode passes through.
		var vc nvme.Command
		vc.SetOpcode(nvme.OpVendorStart + 1)
		vc.SetNSID(1)
		if st := r.submit(pr, vc); !st.OK() {
			t.Errorf("vendor: %v", st)
		}
	})
}

func TestDeviceFlushAndTrim(t *testing.T) {
	store := NewMemStore(512)
	r := newRig(t, Default970EvoPlus(), store)
	r.run(t, func(pr *sim.Proc) {
		data := bytes.Repeat([]byte{1}, 512*chunkBlocks)
		if st := r.rw(pr, nvme.OpWrite, 0, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		if st := r.submit(pr, nvme.NewFlush(0, 1)); !st.OK() {
			t.Errorf("flush: %v", st)
		}
		var c nvme.Command
		c.SetOpcode(nvme.OpDSM)
		c.SetNSID(1)
		c.SetSLBA(0)
		c.SetNLB(chunkBlocks - 1)
		if st := r.submit(pr, c); !st.OK() {
			t.Errorf("trim: %v", st)
		}
		got := make([]byte, 512)
		if st := r.rw(pr, nvme.OpRead, 0, got); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(got, make([]byte, 512)) {
			t.Error("trimmed block not zero")
		}
	})
}

func TestWriteZeroes(t *testing.T) {
	r := newRig(t, Default970EvoPlus(), NewMemStore(512))
	r.run(t, func(pr *sim.Proc) {
		if st := r.rw(pr, nvme.OpWrite, 7, bytes.Repeat([]byte{9}, 512)); !st.OK() {
			t.Fatal(st)
		}
		var c nvme.Command
		c.SetOpcode(nvme.OpWriteZeroes)
		c.SetNSID(1)
		c.SetSLBA(7)
		c.SetNLB(0)
		if st := r.submit(pr, c); !st.OK() {
			t.Fatalf("write zeroes: %v", st)
		}
		got := make([]byte, 512)
		r.rw(pr, nvme.OpRead, 7, got)
		if !bytes.Equal(got, make([]byte, 512)) {
			t.Error("write zeroes did not zero")
		}
	})
}

func TestPartitionTranslate(t *testing.T) {
	env := sim.New(1)
	dev := New(env, Default970EvoPlus(), NullStore{})
	parts := Carve(dev, 1, 4)
	if len(parts) != 4 {
		t.Fatal("carve")
	}
	per := dev.Namespace(1).Info.Size / 4
	if parts[2].Start != 2*per {
		t.Fatalf("start %d", parts[2].Start)
	}
	if got, ok := parts[1].Translate(10, 5); !ok || got != per+10 {
		t.Fatalf("translate %d %v", got, ok)
	}
	if _, ok := parts[1].Translate(per-1, 2); ok {
		t.Fatal("overflow must fail")
	}
	if parts[0].BlockSize() != 512 {
		t.Fatal("block size")
	}
}

func TestStoreImplementations(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 1024)
	t.Run("mem", func(t *testing.T) {
		s := NewMemStore(512)
		s.WriteBlocks(10, data)
		got := make([]byte, 1024)
		s.ReadBlocks(10, got)
		if !bytes.Equal(data, got) {
			t.Fatal("mem round trip")
		}
		s.TrimBlocks(10, 2)
		s.ReadBlocks(10, got)
		if !bytes.Equal(got, make([]byte, 1024)) {
			t.Fatal("trim")
		}
	})
	t.Run("null", func(t *testing.T) {
		var s NullStore
		s.WriteBlocks(0, data)
		got := make([]byte, 512)
		s.ReadBlocks(0, got)
		if !bytes.Equal(got, make([]byte, 512)) {
			t.Fatal("null reads zeros")
		}
	})
}

func TestMemStoreCrossChunk(t *testing.T) {
	s := NewMemStore(512)
	data := make([]byte, 512*(chunkBlocks+3))
	for i := range data {
		data[i] = byte(i)
	}
	s.WriteBlocks(chunkBlocks-2, data)
	got := make([]byte, len(data))
	s.ReadBlocks(chunkBlocks-2, got)
	if !bytes.Equal(data, got) {
		t.Fatal("cross chunk round trip")
	}
}

// TestHostileRangeRejected: the guest owns SLBA and NLB, so the range check
// must not wrap. At SLBA = 2^64-1 a wrapped sum passes, and a write
// materialises a store chunk far outside the namespace.
func TestHostileRangeRejected(t *testing.T) {
	p := Default970EvoPlus()
	p.Blocks = 1000
	store := NewMemStore(512)
	r := newRig(t, p, store)
	cases := []struct {
		name   string
		slba   uint64
		blocks uint32
		want   nvme.Status
	}{
		{"last block", 999, 1, nvme.SCSuccess},
		{"empty tail is still a 1-block command", 1000, 1, nvme.SCLBAOutOfRange},
		{"straddles the end", 999, 2, nvme.SCLBAOutOfRange},
		{"wraps to 0", ^uint64(0), 1, nvme.SCLBAOutOfRange},
		{"wraps past 0", ^uint64(0), 2, nvme.SCLBAOutOfRange},
		{"wraps into the namespace", ^uint64(0) - 500, 1000, nvme.SCLBAOutOfRange},
	}
	r.run(t, func(pr *sim.Proc) {
		buf := r.mem.MustAllocPages(1)
		for _, tc := range cases {
			for _, op := range []uint8{nvme.OpRead, nvme.OpWrite, nvme.OpCompare, nvme.OpWriteZeroes, nvme.OpDSM} {
				if tc.want.OK() && op == nvme.OpCompare {
					continue // would fail on content, not on range
				}
				if st := r.submit(pr, nvme.NewRW(op, 0, 1, tc.slba, tc.blocks, buf, 0)); st != tc.want {
					t.Errorf("%s, opcode %#x: %v, want %v", tc.name, op, st, tc.want)
				}
			}
		}
	})
	if store.Resident() != 1 {
		t.Errorf("%d chunks resident, want only the last block's", store.Resident())
	}
}

func TestPartitionTranslateHostile(t *testing.T) {
	env := sim.New(1)
	parts := Carve(New(env, Default970EvoPlus(), NullStore{}), 1, 4)
	per := parts[0].Blocks
	for _, tc := range []struct {
		lba    uint64
		blocks uint32
		ok     bool
	}{
		{per - 1, 1, true},
		{per, 1, false},
		{per - 1, 2, false},
		{^uint64(0), 1, false}, // wrapped sum is 0: would map to the neighbour's last block
		{^uint64(0), 2, false},
		{^uint64(0) - 500, 1000, false},
	} {
		got, ok := parts[1].Translate(tc.lba, tc.blocks)
		if ok != tc.ok || (ok && got != parts[1].Start+tc.lba) {
			t.Errorf("Translate(%#x, %d) = %#x, %v; want ok=%v", tc.lba, tc.blocks, got, ok, tc.ok)
		}
		// Contains sees what a translation that did not check would have
		// produced: Start+lba, wrapped like a classifier's 64-bit add.
		if in := parts[1].Contains(parts[1].Start+tc.lba, tc.blocks); in != tc.ok {
			t.Errorf("Contains(Start+%#x, %d) = %v, want %v", tc.lba, tc.blocks, in, tc.ok)
		}
	}
	if parts[1].Contains(parts[1].Start-1, 2) {
		t.Error("Contains accepts a range starting in the neighbour below")
	}
}

// TestWriteZeroesAfterWriteReusesBuffer: the write payload buffer rides on
// the pooled command state, so a WriteZeroes picking up the state of a
// preceding non-zero write of the same size must clear it.
func TestWriteZeroesAfterWriteReusesBuffer(t *testing.T) {
	r := newRig(t, Default970EvoPlus(), NewMemStore(512))
	r.run(t, func(pr *sim.Proc) {
		if st := r.rw(pr, nvme.OpWrite, 40, bytes.Repeat([]byte{0xee}, 4096)); !st.OK() {
			t.Error(st)
		}
		if len(r.dev.free) != 1 || len(r.dev.free[0].buf) != 4096 || r.dev.free[0].buf[0] != 0xee {
			t.Errorf("want the write's state, payload intact, on the free list; %d states", len(r.dev.free))
		}
		if st := r.submit(pr, nvme.NewRW(nvme.OpWriteZeroes, 0, 1, 80, 8, 0, 0)); !st.OK() {
			t.Error(st)
		}
		got := bytes.Repeat([]byte{1}, 4096)
		if st := r.rw(pr, nvme.OpRead, 80, got); !st.OK() {
			t.Error(st)
		}
		if !bytes.Equal(got, make([]byte, 4096)) {
			t.Error("write zeroes stored a stale payload")
		}
	})
}

// TestNoSpawnPerCommand: at steady state a device command costs no process,
// and the command states in flight are recycled, not accumulated.
func TestNoSpawnPerCommand(t *testing.T) {
	r := newRig(t, Default970EvoPlus(), NullStore{})
	r.run(t, func(pr *sim.Proc) {
		buf := make([]byte, 512)
		r.rw(pr, nvme.OpRead, 0, buf)
		spawns := r.env.Spawns()
		for i := 0; i < 1000; i++ {
			if st := r.rw(pr, nvme.OpRead, uint64(i), buf); !st.OK() {
				t.Error(st)
			}
		}
		if got := r.env.Spawns(); got != spawns {
			t.Errorf("%d processes spawned across 1000 commands", got-spawns)
		}
		if len(r.dev.free) != 1 {
			t.Errorf("%d idle command states after QD1 traffic, want 1", len(r.dev.free))
		}
	})
}
