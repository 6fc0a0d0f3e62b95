package storfn_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/cache"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// setupCache wires the cache storage function for a VM: classifier with the
// Cacher's heat map, the Cacher UIF, and a host block device + ring for the
// backend legs.
func setupCache(t *testing.T, h *host, vc *core.Controller, cp storfn.CacheParams) *storfn.Cacher {
	t.Helper()
	cacher := storfn.NewCacher(h.env, cp)
	prog, _ := storfn.CacheClassifier(vc.Partition(), cacher.Hints(), cp.HotThreshold)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	bdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(h.dev, 1), h.cpu, 11, blockdev.DefaultCosts())
	ring := blockdev.NewURing(h.env, bdev, blockdev.DefaultURingCosts())
	h.fw.Attach(vc.AttachUIF(256), cacher, ring)
	return cacher
}

func TestCacheClassifierVerifies(t *testing.T) {
	env := sim.New(1)
	dev := device.New(env, device.Default970EvoPlus(), device.NullStore{})
	part := device.Partition{Dev: dev, NSID: 1, Start: 4096, Blocks: 8192}
	hints := core.NewHotHints(3, 1<<10)
	prog, _ := storfn.CacheClassifier(part, hints, 2)
	if err := core.NewVerifier().Verify(prog); err != nil {
		t.Fatalf("cache classifier rejected: %v", err)
	}
	if _, ok := storfn.ClassifierSources()["cache"]; !ok {
		t.Fatal("cache classifier missing from the source inventory")
	}
}

// TestCacheEndToEnd drives the full heat lifecycle: a first-touch read
// stays on the fast path, the second (now hot) read misses and fills, the
// third hits host memory; a later write invalidates-and-updates so the next
// hit returns the new data.
func TestCacheEndToEnd(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	cp := storfn.DefaultCacheParams()
	cacher := setupCache(t, h, vc, cp)

	dataA := bytes.Repeat([]byte{0xa1, 7}, 2048) // 8 blocks, one heat bucket
	dataB := bytes.Repeat([]byte{0xb2, 9}, 2048)
	h.run(t, func(p *sim.Proc) {
		// All writes go through the UIF's write window (write-through).
		if st := doIO(p, v, disk, vm.OpWrite, 200, dataA); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		if cacher.ReqWrites != 1 {
			t.Fatalf("write bypassed the cache UIF (ReqWrites=%d)", cacher.ReqWrites)
		}
		// Drop the write-through install so the fill path is exercised.
		cacher.Cache().Invalidate(200, 8)

		got := make([]byte, len(dataA))
		// Read 1: bucket heat 1 < threshold 2 — fast path, UIF untouched.
		if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() || !bytes.Equal(got, dataA) {
			t.Fatalf("cold read: %v", st)
		}
		if cacher.ReqHits+cacher.ReqFills != 0 {
			t.Fatal("cold read reached the cache UIF")
		}
		// Read 2: hot — notify path, cache miss, fill from the backend.
		if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() || !bytes.Equal(got, dataA) {
			t.Fatalf("fill read: %v", st)
		}
		if cacher.ReqFills != 1 {
			t.Fatalf("hot miss did not fill (ReqFills=%d)", cacher.ReqFills)
		}
		// Read 3: hot and resident — served from host memory.
		if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() || !bytes.Equal(got, dataA) {
			t.Fatalf("hit read: %v", st)
		}
		if cacher.ReqHits != 1 {
			t.Fatalf("resident hot read missed (ReqHits=%d)", cacher.ReqHits)
		}
		// Overwrite: the write window invalidates and (write-through)
		// installs the new data — the next hit must never return dataA.
		if st := doIO(p, v, disk, vm.OpWrite, 200, dataB); !st.OK() {
			t.Fatalf("overwrite: %v", st)
		}
		if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() {
			t.Fatalf("read after write: %v", st)
		}
		if bytes.Equal(got, dataA) {
			t.Fatal("stale cached read after a completed write")
		}
		if !bytes.Equal(got, dataB) {
			t.Fatal("read after write returned garbage")
		}
		if cacher.ReqHits != 2 {
			t.Fatalf("read-after-write should hit the write-through install (ReqHits=%d)", cacher.ReqHits)
		}
	})
	if cacher.Cache().Hits() == 0 || cacher.HitLat.Count() == 0 {
		t.Fatal("cache block stats not recorded")
	}
}

// TestCacheWriteAround: under write-around the write only invalidates, so a
// hot read after a write refills from the backend instead of hitting.
func TestCacheWriteAround(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	cp := storfn.DefaultCacheParams()
	cp.Cache.WritePolicy = cache.WriteAround
	cacher := setupCache(t, h, vc, cp)

	data := bytes.Repeat([]byte{0x44, 3}, 2048)
	h.run(t, func(p *sim.Proc) {
		got := make([]byte, len(data))
		// Heat the bucket and fill it.
		doIO(p, v, disk, vm.OpRead, 64, got)
		doIO(p, v, disk, vm.OpRead, 64, got)
		if cacher.ReqFills != 1 {
			t.Fatalf("ReqFills=%d", cacher.ReqFills)
		}
		if st := doIO(p, v, disk, vm.OpWrite, 64, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		if st := doIO(p, v, disk, vm.OpRead, 64, got); !st.OK() || !bytes.Equal(got, data) {
			t.Fatalf("read after write-around: %v", st)
		}
		if cacher.ReqFills != 2 {
			t.Fatalf("write-around read should refill, not hit (ReqFills=%d ReqHits=%d)",
				cacher.ReqFills, cacher.ReqHits)
		}
	})
}
