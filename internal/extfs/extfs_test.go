package extfs_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/extfs"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// ramDisk is a trivial in-memory vm.Disk for filesystem unit tests.
type ramDisk struct {
	env   *sim.Env
	store *device.MemStore
	v     *vm.VM
}

func (d *ramDisk) BlockSize() uint32 { return 512 }
func (d *ramDisk) Blocks() uint64    { return 1 << 22 }
func (d *ramDisk) SubmitFunc(vcpu *sim.Thread, r *vm.Req, then func()) {
	r.Submitted = d.env.Now()
	n := int(r.Blocks) * 512
	buf := make([]byte, n)
	switch r.Op {
	case vm.OpWrite:
		d.v.Mem.ReadAt(buf, r.Buf)
		d.store.WriteBlocks(r.LBA, buf)
	case vm.OpRead:
		d.store.ReadBlocks(r.LBA, buf)
		d.v.Mem.WriteAt(buf, r.Buf)
	}
	d.env.After(10*sim.Microsecond, func() { r.Complete(d.env, nvme.SCSuccess) })
	then()
}

func fsBed() (*sim.Env, *vm.VM, *ramDisk) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 2)
	v := vm.New(env, 0, cpu, 0, 1, 32<<20, vm.DefaultVirtCosts())
	return env, v, &ramDisk{env: env, store: device.NewMemStore(512), v: v}
}

func runP(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	env.Go("t", func(p *sim.Proc) { fn(p); ok = true; env.Stop() })
	env.RunUntil(sim.Time(120 * sim.Second))
	if !ok {
		t.Fatal("did not finish")
	}
	env.Close()
}

func TestCreateOpenDelete(t *testing.T) {
	env, v, disk := fsBed()
	runP(t, env, func(p *sim.Proc) {
		fs, err := extfs.Mount(p, v, disk, v.VCPU(0), extfs.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "a", 4096, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(p, "a", 4096, false); err != extfs.ErrExists {
			t.Fatalf("dup create: %v", err)
		}
		if got, err := fs.Open("a"); err != nil || got != f {
			t.Fatalf("open: %v", err)
		}
		if err := fs.Delete(p, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open("a"); err != extfs.ErrNotFound {
			t.Fatalf("open deleted: %v", err)
		}
		if err := fs.Delete(p, "a"); err != extfs.ErrNotFound {
			t.Fatalf("double delete: %v", err)
		}
	})
}

func TestExtentLimits(t *testing.T) {
	env, v, disk := fsBed()
	runP(t, env, func(p *sim.Proc) {
		fs, _ := extfs.Mount(p, v, disk, v.VCPU(0), extfs.DefaultParams())
		f, _ := fs.Create(p, "small", 1024, false)
		if err := f.WriteAt(p, 900, make([]byte, 200)); err != extfs.ErrNoSpace {
			t.Fatalf("write past extent: %v", err)
		}
		if err := f.ReadAt(p, 1020, make([]byte, 10)); err == nil {
			t.Fatal("read past extent accepted")
		}
		// A file as large as the whole window fails (superblock reserve).
		if _, err := fs.Create(p, "huge", disk.Blocks()*512, false); err != extfs.ErrNoSpace {
			t.Fatalf("oversized create: %v", err)
		}
	})
}

func TestWindowedMountsAreIsolated(t *testing.T) {
	env, v, disk := fsBed()
	runP(t, env, func(p *sim.Proc) {
		half := disk.Blocks() / 2
		fs1, err := extfs.MountAt(p, v, disk, v.VCPU(0), extfs.DefaultParams(), 0, half)
		if err != nil {
			t.Fatal(err)
		}
		fs2, err := extfs.MountAt(p, v, disk, v.VCPU(0), extfs.DefaultParams(), half, half)
		if err != nil {
			t.Fatal(err)
		}
		f1, _ := fs1.Create(p, "x", 1<<20, false)
		f2, _ := fs2.Create(p, "x", 1<<20, false)
		a := bytes.Repeat([]byte{0xaa}, 8192)
		b := bytes.Repeat([]byte{0xbb}, 8192)
		f1.WriteAt(p, 0, a)
		f2.WriteAt(p, 0, b)
		got := make([]byte, 8192)
		f1.ReadAt(p, 0, got)
		if !bytes.Equal(got, a) {
			t.Fatal("window 1 corrupted by window 2")
		}
		f2.ReadAt(p, 0, got)
		if !bytes.Equal(got, b) {
			t.Fatal("window 2 corrupted")
		}
	})
}

func TestCacheHitAvoidsIO(t *testing.T) {
	env, v, disk := fsBed()
	runP(t, env, func(p *sim.Proc) {
		fs, _ := extfs.Mount(p, v, disk, v.VCPU(0), extfs.DefaultParams())
		f, _ := fs.Create(p, "c", 1<<20, false)
		f.WriteAt(p, 0, make([]byte, 4096))
		readsBefore := fs.Reads
		buf := make([]byte, 4096)
		for i := 0; i < 10; i++ {
			f.ReadAt(p, 0, buf)
		}
		if fs.Reads != readsBefore {
			t.Fatalf("cached reads issued %d disk reads", fs.Reads-readsBefore)
		}
		if fs.CacheHits == 0 {
			t.Fatal("no cache hits recorded")
		}
	})
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	env, v, disk := fsBed()
	runP(t, env, func(p *sim.Proc) {
		params := extfs.DefaultParams()
		params.CacheBytes = 8 * extfs.CacheBlockSize // tiny cache
		fs, _ := extfs.Mount(p, v, disk, v.VCPU(0), params)
		f, _ := fs.Create(p, "wb", 1<<20, true)
		// Dirty far more blocks than the cache holds.
		data := bytes.Repeat([]byte{0x5e}, extfs.CacheBlockSize)
		for i := 0; i < 32; i++ {
			f.WriteAt(p, uint64(i)*extfs.CacheBlockSize, data)
		}
		f.Sync(p)
		// Everything must be readable back (evicted blocks were written).
		got := make([]byte, extfs.CacheBlockSize)
		for i := 0; i < 32; i++ {
			if err := f.ReadAt(p, uint64(i)*extfs.CacheBlockSize, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("block %d lost through eviction", i)
			}
		}
	})
}
