package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmetro/internal/metrics"
)

// blk builds one block's payload: every byte is tag.
func blk(bs int, tag byte) []byte {
	return bytes.Repeat([]byte{tag}, bs)
}

// rng builds a multi-block payload where block i is filled with tag+i.
func rng(bs, blocks int, tag byte) []byte {
	out := make([]byte, 0, bs*blocks)
	for i := 0; i < blocks; i++ {
		out = append(out, blk(bs, tag+byte(i))...)
	}
	return out
}

func testCfg(capBlocks uint64) Config {
	cfg := DefaultConfig()
	cfg.BlockSize = 16
	cfg.CapacityBlocks = capBlocks
	return cfg
}

func TestFillThenHit(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	data := rng(bs, 4, 0x10)
	id := c.BeginFill(100, 4)
	if !c.CommitFill(id, data) {
		t.Fatal("uncontested fill did not install")
	}
	buf := make([]byte, 4*bs)
	if !c.Read(100, 4, buf) {
		t.Fatal("read after fill missed")
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("hit returned wrong data")
	}
	// Partial residency is a miss: one block short of the range.
	if c.Read(99, 2, make([]byte, 2*bs)) {
		t.Fatal("partial residency served as a hit")
	}
	if c.Hits() != 4 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 4/2", c.Hits(), c.Misses())
	}
}

func TestWriteThroughInstallsOnEnd(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	id := c.BeginFill(10, 2)
	c.CommitFill(id, rng(bs, 2, 1))

	w := c.BeginWrite(10, 2)
	// The range must be invalid while the write is in flight.
	if c.Read(10, 2, make([]byte, 2*bs)) {
		t.Fatal("read hit inside an open write window")
	}
	newData := rng(bs, 2, 0x40)
	c.EndWrite(w, newData)
	buf := make([]byte, 2*bs)
	if !c.Read(10, 2, buf) {
		t.Fatal("write-through install missed")
	}
	if !bytes.Equal(buf, newData) {
		t.Fatal("write-through installed stale data")
	}
}

func TestWriteAroundOnlyInvalidates(t *testing.T) {
	cfg := testCfg(64)
	cfg.WritePolicy = WriteAround
	c := New(cfg)
	bs := int(c.BlockSize())
	id := c.BeginFill(10, 2)
	c.CommitFill(id, rng(bs, 2, 1))
	w := c.BeginWrite(10, 2)
	c.EndWrite(w, rng(bs, 2, 2))
	if c.Read(10, 2, make([]byte, 2*bs)) {
		t.Fatal("write-around left data resident")
	}
}

func TestFailedWriteNeverInstalls(t *testing.T) {
	c := New(testCfg(64))
	w := c.BeginWrite(10, 2)
	c.EndWrite(w, nil) // backend write failed
	if c.Read(10, 2, make([]byte, 2*int(c.BlockSize()))) {
		t.Fatal("failed write installed data")
	}
}

// The three stale-fill interleavings: a fill whose lifetime overlaps a
// write window must never install, regardless of ordering.
func TestStaleFillInterleavings(t *testing.T) {
	bs := 16
	cases := []struct {
		name string
		run  func(c *Cache) bool // returns CommitFill's result
	}{
		{"write spans fill", func(c *Cache) bool {
			f := c.BeginFill(0, 4)
			w := c.BeginWrite(2, 4)
			c.EndWrite(w, rng(bs, 4, 9))
			return c.CommitFill(f, rng(bs, 4, 1))
		}},
		{"write still open at commit", func(c *Cache) bool {
			w := c.BeginWrite(2, 4)
			f := c.BeginFill(0, 4)
			ok := c.CommitFill(f, rng(bs, 4, 1))
			c.EndWrite(w, rng(bs, 4, 9))
			return ok
		}},
		{"write opens and closes inside fill", func(c *Cache) bool {
			f := c.BeginFill(0, 4)
			w := c.BeginWrite(2, 4)
			c.EndWrite(w, nil)
			return c.CommitFill(f, rng(bs, 4, 1))
		}},
		{"write closes between fill begin and commit", func(c *Cache) bool {
			w := c.BeginWrite(2, 4)
			f := c.BeginFill(0, 4)
			c.EndWrite(w, nil)
			return c.CommitFill(f, rng(bs, 4, 1))
		}},
	}
	for _, tc := range cases {
		c := New(testCfg(64))
		if tc.run(c) {
			t.Fatalf("%s: conflicted fill installed", tc.name)
		}
		// Blocks 0 and 1 are covered only by the fill [0,4), not the write
		// [2,6): if either is resident the dropped fill leaked data.
		if c.Peek(0) != nil || c.Peek(1) != nil {
			t.Fatalf("%s: stale fill data resident", tc.name)
		}
		var cs metrics.CounterSet
		c.Collect(&cs)
		if cs.Get("cache.conflicts") != 1 {
			t.Fatalf("%s: conflicts=%d, want 1", tc.name, cs.Get("cache.conflicts"))
		}
	}
}

func TestNonOverlappingFillSurvivesWrite(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	f := c.BeginFill(0, 2)
	w := c.BeginWrite(10, 2) // disjoint range
	c.EndWrite(w, rng(bs, 2, 9))
	if !c.CommitFill(f, rng(bs, 2, 1)) {
		t.Fatal("disjoint write cancelled an unrelated fill")
	}
}

func TestEndWriteSkipsWhenWritesOverlap(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	w1 := c.BeginWrite(0, 4)
	w2 := c.BeginWrite(2, 4)
	c.EndWrite(w1, rng(bs, 4, 1)) // w2 still open: install must be skipped
	if c.Read(0, 1, make([]byte, bs)) {
		t.Fatal("install happened under an overlapping write window")
	}
	// w2's lifetime overlapped w1's too: which payload the backend holds on
	// [2,4) depends on commit order the cache never saw, so w2 must not
	// install either.
	c.EndWrite(w2, rng(bs, 4, 2))
	for lba := uint64(0); lba < 6; lba++ {
		if c.Peek(lba) != nil {
			t.Fatalf("block %d resident after conflicting writes", lba)
		}
	}
	var cs metrics.CounterSet
	c.Collect(&cs)
	if cs.Get("cache.write_skips") != 2 {
		t.Fatalf("write_skips=%d, want 2", cs.Get("cache.write_skips"))
	}
}

// TestNestedWriteWindowNeverInstalls is the A.Begin, B.Begin, B.End, A.End
// interleaving: B's window closes entirely inside A's, and the backend
// committed B after A (EndWrite order is not commit order — a window that
// waits on a slow second leg closes after the commit). A closing with no
// *open* overlaps must still not install A's payload over B's.
func TestNestedWriteWindowNeverInstalls(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	a := c.BeginWrite(0, 2)
	b := c.BeginWrite(0, 2)
	// Backend: A's payload lands first, then B's — backing holds B.
	c.EndWrite(b, rng(bs, 2, 0xBB))
	c.EndWrite(a, rng(bs, 2, 0xAA)) // no open overlaps, but conflicted
	for lba := uint64(0); lba < 2; lba++ {
		if got := c.Peek(lba); got != nil {
			t.Fatalf("block %d resident (%v) after nested write windows — backing holds B's payload", lba, got[0])
		}
	}
	var cs metrics.CounterSet
	c.Collect(&cs)
	if cs.Get("cache.write_skips") != 2 {
		t.Fatalf("write_skips=%d, want 2", cs.Get("cache.write_skips"))
	}
}

// An external Invalidate (kernel-path or resync writer) racing an open
// write window makes the window's payload unreliable too.
func TestInvalidateConflictsOpenWrite(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	w := c.BeginWrite(0, 4)
	c.Invalidate(2, 1) // external writer touched [2,3) mid-window
	c.EndWrite(w, rng(bs, 4, 1))
	for lba := uint64(0); lba < 4; lba++ {
		if c.Peek(lba) != nil {
			t.Fatalf("block %d resident after external write raced the window", lba)
		}
	}
	var cs metrics.CounterSet
	c.Collect(&cs)
	if cs.Get("cache.write_skips") != 1 {
		t.Fatalf("write_skips=%d, want 1", cs.Get("cache.write_skips"))
	}
}

func TestInvalidateCancelsFills(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	f := c.BeginFill(0, 4)
	c.Invalidate(2, 1)
	if c.CommitFill(f, rng(bs, 4, 1)) {
		t.Fatal("fill survived an overlapping invalidation")
	}
}

func TestAbortFill(t *testing.T) {
	c := New(testCfg(64))
	f := c.BeginFill(0, 4)
	c.AbortFill(f)
	if c.CommitFill(f, rng(int(c.BlockSize()), 4, 1)) {
		t.Fatal("aborted fill committed")
	}
	var cs metrics.CounterSet
	c.Collect(&cs)
	if cs.Get("cache.fill_aborts") != 1 {
		t.Fatalf("fill_aborts=%d, want 1", cs.Get("cache.fill_aborts"))
	}
}

// OnEvict must run with no cache locks held: the callback re-enters the
// cache (Invalidate takes the window mutex, Peek a shard mutex), which
// deadlocks if eviction notification happens under either lock.
func TestOnEvictRunsOutsideLocks(t *testing.T) {
	cfg := testCfg(8) // tiny: every install evicts soon
	var evicted []uint64
	var c *Cache
	cfg.OnEvict = func(lba uint64) {
		evicted = append(evicted, lba)
		c.Peek(lba)
		c.Invalidate(lba, 1) // no-op (already gone), but takes the locks
	}
	c = New(cfg)
	bs := int(c.BlockSize())
	for i := uint64(0); i < 64; i++ {
		f := c.BeginFill(i, 1)
		c.CommitFill(f, blk(bs, byte(i)))
	}
	if len(evicted) == 0 {
		t.Fatal("tiny cache never evicted")
	}
	if c.Resident() > 8 {
		t.Fatalf("resident=%d exceeds capacity 8", c.Resident())
	}
}

func TestCollectDeterministicAcrossRuns(t *testing.T) {
	run := func() (*metrics.CounterSet, *metrics.Histogram) {
		c := New(testCfg(32))
		bs := int(c.BlockSize())
		for i := 0; i < 200; i++ {
			lba := uint64(i*7) % 64
			switch i % 5 {
			case 0, 1:
				f := c.BeginFill(lba, 2)
				c.CommitFill(f, rng(bs, 2, byte(i)))
			case 2:
				w := c.BeginWrite(lba, 2)
				c.EndWrite(w, rng(bs, 2, byte(i)))
			case 3:
				c.Read(lba, 2, make([]byte, 2*bs))
			default:
				c.Invalidate(lba, 1)
			}
		}
		var cs metrics.CounterSet
		c.Collect(&cs)
		return &cs, c.ReuseHistogram()
	}
	a, ha := run()
	b, hb := run()
	if !a.Equal(b) {
		t.Fatalf("same op sequence produced different counters:\n%s\n%s", a, b)
	}
	if !ha.Equal(hb) {
		t.Fatalf("same op sequence produced different reuse histograms: %v vs %v", ha, hb)
	}
}

// TestViewCountsLikeRead runs one op sequence against two caches, reading
// single blocks by copy (Read) on one and in place (View) on the other: the
// bytes, every counter, the reuse histogram and — through what later fills
// evict — the replacement state must not be able to tell them apart.
func TestViewCountsLikeRead(t *testing.T) {
	byCopy, inPlace := New(testCfg(16)), New(testCfg(16))
	bs := int(byCopy.BlockSize())
	buf := make([]byte, bs)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		lba := uint64(r.Intn(48))
		switch r.Intn(8) {
		case 0, 1:
			for _, c := range []*Cache{byCopy, inPlace} {
				c.CommitFill(c.BeginFill(lba, 1), blk(bs, byte(lba)))
			}
		case 2:
			for _, c := range []*Cache{byCopy, inPlace} {
				c.Invalidate(lba, 1)
			}
		default:
			hit, view := byCopy.Read(lba, 1, buf), inPlace.View(lba)
			if hit != (view != nil) || hit && !bytes.Equal(view, buf) {
				t.Fatalf("op %d lba %d: Read hit=%v %x, View %x", i, lba, hit, buf, view)
			}
		}
	}
	var a, b metrics.CounterSet
	byCopy.Collect(&a)
	inPlace.Collect(&b)
	if !a.Equal(&b) || byCopy.Hits() == 0 || byCopy.Misses() == 0 {
		t.Fatalf("View is not counted as Read is:\n%s\n%s", &a, &b)
	}
	if !byCopy.ReuseHistogram().Equal(inPlace.ReuseHistogram()) {
		t.Fatalf("reuse histograms differ: %v vs %v", byCopy.ReuseHistogram(), inPlace.ReuseHistogram())
	}
	for lba := uint64(0); lba < 48; lba++ {
		if byCopy.Contains(lba, 1) != inPlace.Contains(lba, 1) {
			t.Fatalf("resident sets differ at lba %d: the replacement policy saw different hits", lba)
		}
	}
}

// oneShard returns the first n block LBAs that hash to shard 0, so a test
// can drive one shard's ARC through the whole cache.
func oneShard(n int) []uint64 {
	var out []uint64
	for lba := uint64(0); len(out) < n; lba++ {
		if shardIndex(lba) == 0 {
			out = append(out, lba)
		}
	}
	return out
}

// ARC keeps a re-read hot set resident through a one-shot scan. The scan is
// four times the shard's capacity, so plain LRU would keep none of it.
func TestARCScanResistance(t *testing.T) {
	const capBlocks = 64 // per shard
	c := New(testCfg(capBlocks * nShards))
	bs := int(c.BlockSize())
	keys := oneShard(32 + 256)
	touch := func(lba uint64) {
		buf := make([]byte, bs)
		if !c.Read(lba, 1, buf) {
			f := c.BeginFill(lba, 1)
			c.CommitFill(f, blk(bs, byte(lba)))
		}
	}
	// Establish a hot set re-read many times...
	for round := 0; round < 8; round++ {
		for _, lba := range keys[:32] {
			touch(lba)
		}
	}
	// ...then scan a large cold range once.
	for _, lba := range keys[32:] {
		touch(lba)
	}
	kept := 0
	for _, lba := range keys[:32] {
		if c.Peek(lba) != nil {
			kept++
		}
	}
	if kept < 24 {
		t.Fatalf("ARC kept only %d/32 hot blocks through a scan", kept)
	}
	if r := c.Resident(); r > capBlocks {
		t.Fatalf("resident=%d exceeds the shard's capacity %d", r, capBlocks)
	}
}

// Refilling the block evicted last is a ghost re-admission. ARC keeps ghosts
// of T1 evictions only while T2 holds blocks, so part of the shard is
// re-read first.
func TestGhostHitsObserved(t *testing.T) {
	cfg := testCfg(8 * nShards) // 8 blocks per shard
	var last uint64
	cfg.OnEvict = func(lba uint64) { last = lba }
	c := New(cfg)
	bs := int(c.BlockSize())
	fill := func(lba uint64) {
		f := c.BeginFill(lba, 1)
		c.CommitFill(f, blk(bs, byte(lba)))
	}
	keys := oneShard(12)
	for _, lba := range keys[:4] {
		fill(lba)
		c.Read(lba, 1, make([]byte, bs)) // T1 -> T2
	}
	for _, lba := range keys[4:] {
		fill(lba)
	}
	var cs metrics.CounterSet
	c.Collect(&cs)
	if cs.Get("cache.evictions") == 0 {
		t.Fatal("shard never evicted")
	}
	fill(last)
	cs = metrics.CounterSet{}
	c.Collect(&cs)
	if cs.Get("cache.ghost_hits") == 0 {
		t.Fatal("ghost re-admission not observed")
	}
}

// TestARCHitAllocatesNothing: a hit on a T2 resident, the steady state of a
// hot set, moves a list element and allocates nothing; the first re-reference
// (T1 -> T2) keeps the key's entry.
func TestARCHitAllocatesNothing(t *testing.T) {
	pol := newARC(64)
	for k := uint64(0); k < 32; k++ {
		pol.Admit(k)
		pol.Hit(k) // T1 -> T2
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		pol.Hit(k % 32)
		k += 7
	}); n != 0 {
		t.Errorf("%v allocs per hit on a T2 resident, want 0", n)
	}
	if pol.Len() != 32 {
		t.Errorf("resident count %d after hits only, want 32", pol.Len())
	}
}
