package cache

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentCoherence hammers the cache from real goroutines — writers,
// fillers and readers racing over a small LBA domain — and checks the
// coherence guarantee under -race: a hit never returns a torn block or a
// version older than one the reader already observed as committed.
//
// Each block's payload encodes a version number repeated across the block,
// so tearing (mixed versions within one block) and staleness (version below
// the committed floor at read start) are both detectable.
func TestConcurrentCoherence(t *testing.T) {
	const (
		domain  = 64
		writers = 4
		readers = 4
		fillers = 2
		iters   = 2000
	)
	cfg := Config{
		BlockSize:      32,
		CapacityBlocks: 48, // below domain: evictions race with everything
		WritePolicy:    writeThrough,
	}
	c := New(cfg)
	bs := int(cfg.BlockSize)

	// backing[lba] holds the block's current bytes; committed[lba] the
	// version floor visible to any read that starts now. Only the backend
	// commit itself serializes per block (as the device would); write
	// windows open before and close after that critical section, so
	// overlapping windows on one block coexist and EndWrite order differs
	// from backend commit order — the schedule that catches a window
	// installing a payload the backend has already overwritten.
	var backing [domain]atomic.Pointer[[]byte]
	var committed [domain]atomic.Uint64
	var wmu [domain]sync.Mutex
	var verCtr [domain]uint64 // guarded by wmu

	encode := func(ver uint64) []byte {
		p := make([]byte, bs)
		for off := 0; off+8 <= bs; off += 8 {
			binary.LittleEndian.PutUint64(p[off:], ver)
		}
		return p
	}
	for i := range backing {
		p := encode(0)
		backing[i].Store(&p)
	}

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				lba := x % domain
				h := c.BeginWrite(lba, 1)
				wmu[lba].Lock()
				verCtr[lba]++
				ver := verCtr[lba]
				p := encode(ver)
				backing[lba].Store(&p) // "backend write completes"
				// Committed floor rises before the window closes, mirroring
				// a backend that acknowledged the write.
				committed[lba].Store(ver)
				wmu[lba].Unlock()
				c.EndWrite(h, p)
			}
		}(uint64(w)*97 + 11)
	}

	for f := 0; f < fillers; f++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				lba := x % domain
				h := c.BeginFill(lba, 1)
				snap := *backing[lba].Load() // "backend read" mid-window
				c.CommitFill(h, snap)
			}
		}(uint64(f)*131 + 7)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			buf := make([]byte, bs)
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				lba := x % domain
				floor := committed[lba].Load()
				if !c.Read(lba, 1, buf) {
					continue
				}
				ver := binary.LittleEndian.Uint64(buf)
				for off := 8; off+8 <= bs; off += 8 {
					if v := binary.LittleEndian.Uint64(buf[off:]); v != ver {
						fail("torn block %d: version %d then %d at offset %d", lba, ver, v, off)
						return
					}
				}
				if ver < floor {
					fail("stale hit on block %d: version %d below committed floor %d", lba, ver, floor)
					return
				}
			}
		}(uint64(r)*17 + 3)
	}

	wg.Wait()
	if c.resident() > int(cfg.CapacityBlocks) {
		t.Fatalf("resident %d exceeds capacity %d", c.resident(), cfg.CapacityBlocks)
	}
}
