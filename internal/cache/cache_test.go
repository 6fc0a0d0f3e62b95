package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmetro/internal/bufpool"
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
		if peek(c, 0) != nil || peek(c, 1) != nil {
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
		if peek(c, lba) != nil {
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
		if got := peek(c, lba); got != nil {
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
		if peek(c, lba) != nil {
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
		peek(c, lba)
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
	if c.resident() > 8 {
		t.Fatalf("resident=%d exceeds capacity 8", c.resident())
	}
}

func TestCollectDeterministicAcrossRuns(t *testing.T) {
	run := func() *metrics.CounterSet {
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
		return &cs
	}
	a := run()
	b := run()
	if !a.Equal(b) {
		t.Fatalf("same op sequence produced different counters:\n%s\n%s", a, b)
	}
}

// TestViewCountsLikeRead runs one op sequence against two caches, reading
// single blocks by copy (Read) on one and in place (View) on the other: the
// bytes, every counter and — through what later fills
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
	for lba := uint64(0); lba < 48; lba++ {
		if byCopy.Contains(lba, 1) != inPlace.Contains(lba, 1) {
			t.Fatalf("resident sets differ at lba %d: the replacement policy saw different hits", lba)
		}
	}
}

// TestAdoptedLineNeverRecycled: AdoptFill makes the caller's bytes the line
// without a copy, and the line stays lent: a fill over it takes a line of
// its own, and evicting it under bufpool.Poison neither overwrites it nor
// hands it to a later admission.
func TestAdoptedLineNeverRecycled(t *testing.T) {
	defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
	bufpool.Poison = true
	const bs = 64
	c := New(Config{BlockSize: bs, CapacityBlocks: 8, WritePolicy: WriteAround})
	data := blk(bs, 0x5a)
	if !c.AdoptFill(c.BeginFill(0, 1), data) {
		t.Fatal("fill not installed")
	}
	if line := c.View(0); &line[0] != &data[0] {
		t.Fatal("the adopted line is a copy")
	}
	// A copy installed over the adopted block takes a line of its own.
	c.CommitFill(c.BeginFill(0, 1), blk(bs, 0x11))
	if line := c.View(0); &line[0] == &data[0] || line[0] != 0x11 || data[0] != 0x5a {
		t.Fatal("a fill over an adopted line wrote into its owner's bytes")
	}
	c.AdoptFill(c.BeginFill(0, 1), data)
	for lba := uint64(1); lba < 100; lba++ {
		c.CommitFill(c.BeginFill(lba, 1), blk(bs, byte(lba)))
	}
	if c.Contains(0, 1) {
		t.Fatal("block 0 was not evicted: the test needs a smaller cache")
	}
	if !bytes.Equal(data, blk(bs, 0x5a)) {
		t.Fatal("evicting an adopted line overwrote its owner's bytes")
	}
	for _, sh := range c.shards {
		for _, l := range sh.spare {
			if &l[0] == &data[0] {
				t.Fatal("an adopted line went on the spare list")
			}
		}
	}
}

// TestZeroLinesShareOneBlock: an all-zero block, filled or written through,
// is installed as the cache's one zero line rather than copied, and a
// non-zero install over it takes a line of its own. Random fills, write-
// throughs, invalidations and reads, half of them all zero, run under
// bufpool.Poison on a cache small enough to evict; after every op each
// resident block holds its last install, the zero blocks on the shared
// line, which stays all zero and never reaches a spare list, and the hits,
// misses, admissions and evictions are those of the list-based ARC
// reference driven with the same accesses.
func TestZeroLinesShareOneBlock(t *testing.T) {
	defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
	bufpool.Poison = true
	const bs, span = 64, 64
	cfg := Config{BlockSize: bs, CapacityBlocks: 24}
	c := New(cfg)
	zero := make([]byte, bs)

	c.CommitFill(c.BeginFill(0, 1), zero)
	c.EndWrite(c.BeginWrite(1, 1), zero)
	a, b := c.View(0), c.View(1)
	if a == nil || b == nil || &a[0] != &b[0] || &a[0] == &zero[0] {
		t.Fatal("a zero fill and a zero write-through do not share the cache's zero line")
	}
	c.EndWrite(c.BeginWrite(1, 1), blk(bs, 0x77))
	if line := c.View(1); &line[0] == &a[0] || line[0] != 0x77 || !bytes.Equal(a, zero) {
		t.Fatal("a non-zero write-through over a zero block did not get its own line")
	}

	c = New(cfg)
	var ref [nShards]*arcPolicy
	for i, sh := range c.shards {
		ref[i] = newARCPolicy(sh.c)
	}
	var hits, misses, admissions, evictions uint64
	resident := func(lba uint64) bool {
		r := ref[shardIndex(lba)]
		e, ok := r.idx[lba]
		return ok && (e.Value.(*polEntry).home == r.t1 || e.Value.(*polEntry).home == r.t2)
	}
	model := map[uint64][]byte{}
	install := func(lba uint64, data []byte) {
		r := ref[shardIndex(lba)]
		if resident(lba) {
			r.hit(lba)
		} else {
			ev := r.admit(lba)
			admissions++
			evictions += uint64(len(ev))
			for _, k := range ev {
				delete(model, k)
			}
		}
		model[lba] = data
	}
	invalidate := func(lba uint64) {
		ref[shardIndex(lba)].remove(lba)
		delete(model, lba)
	}
	r := rand.New(rand.NewSource(11))
	buf := make([]byte, bs)
	for op := 0; op < 20000; op++ {
		lba := uint64(r.Intn(span))
		data := zero
		if r.Intn(2) == 0 {
			data = blk(bs, byte(1+r.Intn(255)))
		}
		switch r.Intn(6) {
		case 0:
			c.CommitFill(c.BeginFill(lba, 1), data)
			install(lba, data)
		case 1:
			c.EndWrite(c.BeginWrite(lba, 1), data)
			invalidate(lba)
			install(lba, data)
		case 2:
			c.Invalidate(lba, 1)
			invalidate(lba)
		default:
			hit := c.Read(lba, 1, buf)
			if hit != resident(lba) {
				t.Fatalf("op %d: read of %d hit=%v, reference %v", op, lba, hit, !hit)
			}
			if hit {
				hits++
				ref[shardIndex(lba)].hit(lba)
			} else {
				misses++
			}
		}
		if !bytes.Equal(c.zero, zero) {
			t.Fatalf("op %d: the shared zero line was written", op)
		}
		for k := uint64(0); k < span; k++ {
			sh := c.shardOf(k)
			n, ok := sh.lookup(k)
			if want, in := model[k]; ok != in || ok && !bytes.Equal(sh.nodes[n].line, want) {
				t.Fatalf("op %d: block %d resident=%v, reference %v, or holds the wrong bytes", op, k, ok, in)
			} else if shared := ok && &sh.nodes[n].line[0] == &c.zero[0]; ok && shared != (&want[0] == &zero[0]) {
				t.Fatalf("op %d: block %d on the zero line=%v, want %v", op, k, shared, !shared)
			}
		}
		got := [4]uint64{c.Hits(), c.Misses(), c.sum(func(s *shard) uint64 { return s.admissions }), c.sum(func(s *shard) uint64 { return s.evictions })}
		if want := [4]uint64{hits, misses, admissions, evictions}; got != want {
			t.Fatalf("op %d: hits/misses/admissions/evictions %v, reference %v", op, got, want)
		}
	}
	for _, sh := range c.shards {
		for _, l := range sh.spare {
			if &l[0] == &c.zero[0] {
				t.Fatal("the zero line went on a spare list")
			}
		}
	}
	if evictions == 0 || hits == 0 {
		t.Fatalf("test vacuous: %d evictions, %d hits", evictions, hits)
	}
}

// TestShardCapacitiesSumToConfig: the shards split CapacityBlocks exactly,
// the first CapacityBlocks%8 one line larger, down to the floor of one line
// per shard.
func TestShardCapacitiesSumToConfig(t *testing.T) {
	for _, tc := range []struct {
		capBlocks uint64
		want      [nShards]int
	}{
		{0, [nShards]int{1, 1, 1, 1, 1, 1, 1, 1}},
		{5, [nShards]int{1, 1, 1, 1, 1, 1, 1, 1}},
		{8, [nShards]int{1, 1, 1, 1, 1, 1, 1, 1}},
		{9, [nShards]int{2, 1, 1, 1, 1, 1, 1, 1}},
		{15, [nShards]int{2, 2, 2, 2, 2, 2, 2, 1}},
		{16, [nShards]int{2, 2, 2, 2, 2, 2, 2, 2}},
		{100, [nShards]int{13, 13, 13, 13, 12, 12, 12, 12}},
		{32768, [nShards]int{4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096}},
	} {
		c := New(testCfg(tc.capBlocks))
		var got [nShards]int
		for i, sh := range c.shards {
			got[i] = sh.c
		}
		if got != tc.want {
			t.Errorf("CapacityBlocks %d: shard capacities %v, want %v", tc.capBlocks, got, tc.want)
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
		if peek(c, lba) != nil {
			kept++
		}
	}
	if kept < 24 {
		t.Fatalf("ARC kept only %d/32 hot blocks through a scan", kept)
	}
	if r := c.resident(); r > capBlocks {
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
// hot set, relinks a slab node and allocates nothing; so does the first
// re-reference (T1 -> T2).
func TestARCHitAllocatesNothing(t *testing.T) {
	a := newARC(64)
	for k := uint64(0); k < 32; k++ {
		a.admit(k, nil)
		a.hitKey(k) // T1 -> T2
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		a.hitKey(k % 32)
		k += 7
	}); n != 0 {
		t.Errorf("%v allocs per hit on a T2 resident, want 0", n)
	}
	if a.resident() != 32 {
		t.Errorf("resident count %d after hits only, want 32", a.resident())
	}
}

// TestCacheSteadyStateAllocs: once the lines, slab nodes, window slices and
// index slots a workload needs exist, no cache operation allocates. Each op
// walks a range four times the capacity, so every install evicts and takes
// the evicted block's line; View runs last because a line it lends is never
// recycled.
func TestCacheSteadyStateAllocs(t *testing.T) {
	c := New(testCfg(64))
	bs := int(c.BlockSize())
	data, buf := rng(bs, 4, 1), make([]byte, 4*bs)
	var lba uint64
	next := func() uint64 {
		lba = (lba + 4) % 256
		return lba
	}
	ops := []struct {
		name string
		fn   func()
	}{
		{"Read miss, BeginFill, CommitFill", func() {
			l := next()
			if !c.Read(l, 4, buf) {
				c.CommitFill(c.BeginFill(l, 4), data)
			}
		}},
		{"BeginWrite, EndWrite", func() { c.EndWrite(c.BeginWrite(next(), 4), data) }},
		{"Invalidate, refill", func() {
			l := next()
			c.Invalidate(l, 4)
			c.CommitFill(c.BeginFill(l, 4), data)
		}},
		{"Read hit", func() {
			if !c.Read(0, 4, buf) {
				t.Fatal("resident range missed")
			}
		}},
		{"View", func() {
			if c.View(0) == nil {
				t.Fatal("resident block missed")
			}
		}},
	}
	for _, op := range ops {
		c.CommitFill(c.BeginFill(0, 4), data)
		for i := 0; i < 1000; i++ {
			op.fn()
		}
		if n := testing.AllocsPerRun(500, op.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", op.name, n)
		}
	}
}

// peek returns a copy of one resident block's data, or nil, without touching
// the access stats.
func peek(c *Cache, lba uint64) []byte {
	sh := c.shardOf(lba)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.lookup(lba)
	if !ok {
		return nil
	}
	return append([]byte(nil), sh.nodes[n].line...)
}

// BlockSize returns the cached block size in bytes.
func (c *Cache) BlockSize() uint32 { return c.cfg.BlockSize }
