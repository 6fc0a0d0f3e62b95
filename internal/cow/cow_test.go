package cow

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"nvmetro/internal/bufpool"
	"nvmetro/internal/device"
	"nvmetro/internal/metrics"
)

// oracle pairs a cow.Store with a MemStore receiving the same operations;
// the cow side must stay logically identical at all times.
type oracle struct {
	cow *Store
	mem *device.MemStore
}

func newOracle(blocks uint64, cacheChunks uint64) *oracle {
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: cacheChunks})
	return &oracle{cow: NewStore(ix, blocks, nil), mem: device.NewMemStore(512)}
}

func (o *oracle) write(lba uint64, buf []byte) {
	o.cow.WriteBlocks(lba, buf)
	o.mem.WriteBlocks(lba, buf)
}

func (o *oracle) trim(lba uint64, blocks uint32) {
	o.cow.TrimBlocks(lba, blocks)
	o.mem.TrimBlocks(lba, blocks)
}

func (o *oracle) check(t *testing.T, lba uint64, blocks int) {
	t.Helper()
	a := make([]byte, blocks*512)
	b := make([]byte, blocks*512)
	o.cow.ReadBlocks(lba, a)
	o.mem.ReadBlocks(lba, b)
	if !bytes.Equal(a, b) {
		t.Fatalf("read mismatch at lba %d x%d", lba, blocks)
	}
}

func fill(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// pageWrite is the write a private chunk is held for: one whole 4 KiB page,
// page aligned, or (sub) a few blocks inside one page. It returns the lba.
func (o *oracle) pageWrite(rng *rand.Rand, blocks int, sub bool) uint64 {
	lba := uint64(rng.Intn(blocks/8)) * 8
	n := 8
	if sub {
		n = 1 + rng.Intn(7)
		lba += uint64(rng.Intn(8 - n + 1))
	}
	o.write(lba, fill(rng, n*512))
	return lba
}

// privateBytes is what the store's private chunks hold of their own: each
// record's header (the record and its page table) plus every page entry they
// reference, counted once however many pages share it.
func (s *Store) privateBytes() int {
	const sliceHeader, pointer, entry = 24, 8, 56
	n := 0
	seen := make(map[*device.Page]bool)
	for _, p := range s.mut {
		n += 2*sliceHeader + len(p.pages)*pointer
		for _, pg := range p.pages {
			if pg != nil && !seen[pg] {
				seen[pg] = true
				n += entry + cap(pg.Bytes())
			}
		}
	}
	return n
}

// TestCowOracle drives random writes, trims, snapshots and clones against
// a MemStore oracle: every read and every ContentCRC must match, on the
// original store and across snapshot boundaries.
func TestCowOracle(t *testing.T) {
	const blocks = 4096
	rng := rand.New(rand.NewSource(42))
	o := newOracle(blocks, 0)
	for i := 0; i < 800; i++ {
		lba := uint64(rng.Intn(blocks - 130))
		n := 1 + rng.Intn(130) // spans chunk boundaries (chunk = 64 blocks)
		switch rng.Intn(12) {
		case 0:
			o.trim(lba, uint32(n))
		case 1:
			o.cow.Snapshot()
		case 3, 4:
			// Page-granular private chunks: whole aligned pages and writes
			// inside one page, so chunks stay partly private across the
			// snapshots and clones around them.
			lba = o.pageWrite(rng, blocks-130, rng.Intn(2) == 0)
		case 2:
			// Clone-and-continue: the clone must read identically, and
			// abandoning it must not disturb the parent.
			c := o.cow.Clone()
			buf := make([]byte, 64*512)
			c.ReadBlocks(lba, buf)
			want := make([]byte, 64*512)
			o.mem.ReadBlocks(lba, want)
			if !bytes.Equal(buf, want) {
				t.Fatalf("clone read mismatch at lba %d (iter %d)", lba, i)
			}
			c.WriteBlocks(lba, fill(rng, 512)) // diverge, then drop
			c.Close()
		default:
			o.write(lba, fill(rng, n*512))
		}
		o.check(t, lba, 130)
	}
	if got, want := o.cow.ContentCRC(), o.mem.ContentCRC(); got != want {
		t.Fatalf("ContentCRC mismatch: cow %08x mem %08x", got, want)
	}
	// A snapshot must not change logical content.
	o.cow.Snapshot()
	if got, want := o.cow.ContentCRC(), o.mem.ContentCRC(); got != want {
		t.Fatalf("post-snapshot ContentCRC mismatch: cow %08x mem %08x", got, want)
	}
	o.check(t, 0, 256)
}

// TestCowOracleWithCache repeats the oracle run with the shared
// content-addressed cache in front of the index: caching must never change
// logical content.
func TestCowOracleWithCache(t *testing.T) {
	const blocks = 4096
	rng := rand.New(rand.NewSource(7))
	o := newOracle(blocks, 32)
	for i := 0; i < 400; i++ {
		lba := uint64(rng.Intn(blocks - 130))
		n := 1 + rng.Intn(130)
		switch rng.Intn(10) {
		case 0:
			o.trim(lba, uint32(n))
		case 1:
			o.cow.Snapshot()
		case 2, 3:
			lba = o.pageWrite(rng, blocks-130, rng.Intn(2) == 0)
		default:
			o.write(lba, fill(rng, n*512))
		}
		o.check(t, lba, 130)
	}
	o.cow.Snapshot()
	// Re-read everything twice so sealed chunks travel through the cache.
	o.check(t, 0, blocks)
	o.check(t, 0, blocks)
	if got, want := o.cow.ContentCRC(), o.mem.ContentCRC(); got != want {
		t.Fatalf("cached ContentCRC mismatch: cow %08x mem %08x", got, want)
	}
	if o.cow.idx.cache.Hits() == 0 {
		t.Fatal("expected shared-cache hits on re-read of sealed chunks")
	}
}

// TestCloneIsolation checks the heart of the CoW contract: clones see the
// golden content until they write, their writes are invisible to each
// other and to the base, and the base layer's CRC never moves.
func TestCloneIsolation(t *testing.T) {
	const blocks = 2048
	rng := rand.New(rand.NewSource(1))
	ix := NewIndex(Config{BlockSize: 512})
	golden := NewStore(ix, blocks, nil)
	img := fill(rng, blocks*512)
	golden.WriteBlocks(0, img)
	base := golden.Snapshot()
	if base == nil {
		t.Fatal("snapshot of dirty store returned nil")
	}
	baseCRC := base.CRC()
	goldCRC := golden.ContentCRC()

	a, b := golden.Clone(), golden.Clone()
	buf := make([]byte, 512)
	a.ReadBlocks(100, buf)
	if !bytes.Equal(buf, img[100*512:101*512]) {
		t.Fatal("clone does not see golden content")
	}

	// Diverge a only.
	a.WriteBlocks(100, fill(rng, 4*512))
	b.ReadBlocks(100, buf)
	if !bytes.Equal(buf, img[100*512:101*512]) {
		t.Fatal("write to clone a leaked into clone b")
	}
	golden.ReadBlocks(100, buf)
	if !bytes.Equal(buf, img[100*512:101*512]) {
		t.Fatal("write to clone a leaked into the golden store")
	}
	if base.CRC() != baseCRC {
		t.Fatal("base layer CRC changed after clone write")
	}
	if golden.ContentCRC() != goldCRC {
		t.Fatal("golden ContentCRC changed after clone write")
	}
	if a.ContentCRC() == b.ContentCRC() {
		t.Fatal("diverged clones report equal ContentCRC")
	}
	if a.DivergenceCRC() == 0 {
		t.Fatal("diverged clone reports zero DivergenceCRC")
	}
	if b.DivergenceCRC() != 0 {
		t.Fatal("untouched clone reports nonzero DivergenceCRC")
	}
	if a.CowBreaks == 0 || a.ChunkCopies == 0 {
		t.Fatalf("expected CoW break + RMW copy on partial overwrite, got breaks=%d copies=%d", a.CowBreaks, a.ChunkCopies)
	}
	if got := a.broken.Blocks(); got == 0 {
		t.Fatal("broken extents not tracked")
	}
	a.Close()
	b.Close()
	golden.Close()
}

// TestDedupAndGC checks that identical content across tenants is stored
// once, and that closing the last referencing chain garbage-collects
// chunks by refcount.
func TestDedupAndGC(t *testing.T) {
	const blocks = 1024
	rng := rand.New(rand.NewSource(9))
	ix := NewIndex(Config{BlockSize: 512})
	golden := NewStore(ix, blocks, nil)
	golden.WriteBlocks(0, fill(rng, blocks*512))
	golden.Snapshot()
	baseChunks := ix.Chunks()
	if baseChunks == 0 {
		t.Fatal("no chunks sealed")
	}

	// Two clones write the same bytes at the same place: after sealing,
	// the index must hold one copy.
	a, b := golden.Clone(), golden.Clone()
	same := fill(rng, 64*512)
	a.WriteBlocks(0, same)
	b.WriteBlocks(0, same)
	a.Snapshot()
	before := ix.Chunks()
	b.Snapshot()
	if ix.Chunks() != before {
		t.Fatalf("identical chunk not deduplicated: %d -> %d", before, ix.Chunks())
	}
	ix.mu.Lock()
	hits := ix.dedupHits
	ix.mu.Unlock()
	if hits == 0 {
		t.Fatal("dedupHits not counted")
	}

	// Divergent-only chunks die with their last owner; shared base chunks
	// survive until every chain is closed.
	a.Close()
	b.Close()
	if ix.Chunks() != baseChunks {
		t.Fatalf("clone-private chunks not GCed: %d != %d", ix.Chunks(), baseChunks)
	}
	golden.Close()
	if ix.Chunks() != 0 {
		t.Fatalf("index not empty after last close: %d chunks", ix.Chunks())
	}
	ix.mu.Lock()
	released := ix.released
	ix.mu.Unlock()
	if released == 0 {
		t.Fatal("released not counted")
	}
}

// TestTrimWhiteouts checks that trims shadow sealed content with
// whiteouts and keep ContentCRC in lockstep with a trimmed MemStore.
func TestTrimWhiteouts(t *testing.T) {
	const blocks = 1024
	rng := rand.New(rand.NewSource(3))
	o := newOracle(blocks, 0)
	o.write(0, fill(rng, blocks*512))
	o.cow.Snapshot()
	// Full-chunk, cross-chunk and sub-chunk trims.
	o.trim(0, 64)
	o.trim(100, 200)
	o.trim(500, 10)
	o.check(t, 0, blocks)
	if got, want := o.cow.ContentCRC(), o.mem.ContentCRC(); got != want {
		t.Fatalf("trimmed ContentCRC mismatch: cow %08x mem %08x", got, want)
	}
	// Seal the trims: all-zero private chunks must become whiteouts.
	l := o.cow.Snapshot()
	if l == nil || l.whiteouts() == 0 {
		t.Fatal("trimmed chunks did not seal as whiteouts")
	}
	o.check(t, 0, blocks)
	if got, want := o.cow.ContentCRC(), o.mem.ContentCRC(); got != want {
		t.Fatalf("sealed-trim ContentCRC mismatch: cow %08x mem %08x", got, want)
	}
}

// TestCloneCostFlat pins the O(metadata) clone claim deterministically:
// cloning an 8x larger image moves zero chunks and the same per-clone
// metadata, so clone cost is flat in image size.
func TestCloneCostFlat(t *testing.T) {
	cost := func(imageBlocks uint64) (layers int, copies uint64) {
		rng := rand.New(rand.NewSource(5))
		ix := NewIndex(Config{BlockSize: 512})
		g := NewStore(ix, imageBlocks, nil)
		g.WriteBlocks(0, fill(rng, int(imageBlocks)*512))
		g.Snapshot()
		c := g.Clone()
		defer c.Close()
		defer g.Close()
		return len(c.Layers()), c.ChunkCopies
	}
	l1, c1 := cost(1024)
	l8, c8 := cost(8 * 1024)
	if c1 != 0 || c8 != 0 {
		t.Fatalf("clone copied chunks: %d / %d", c1, c8)
	}
	if l1 != l8 {
		t.Fatalf("clone metadata grew with image size: %d vs %d layers", l1, l8)
	}
}

// TestSharedCacheCrossTenant checks the sharing the content-addressed
// cache exists for: a chunk filled by one clone's read hits for another
// clone, because both map the same golden content hash.
func TestSharedCacheCrossTenant(t *testing.T) {
	const blocks = 1024
	rng := rand.New(rand.NewSource(11))
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: 64})
	golden := NewStore(ix, blocks, nil)
	golden.WriteBlocks(0, fill(rng, blocks*512))
	golden.Snapshot()
	a, b := golden.Clone(), golden.Clone()
	buf := make([]byte, 64*512)
	a.ReadBlocks(0, buf) // miss + fill
	h0 := ix.cache.Hits()
	b.ReadBlocks(0, buf) // same content hash: hit
	if ix.cache.Hits() != h0+1 {
		t.Fatalf("cross-tenant read did not hit shared cache: hits %d -> %d", h0, ix.cache.Hits())
	}
	a.Close()
	b.Close()
	golden.Close()
}

// TestPartialReadCounters pins what a sub-chunk read costs in the store's
// books whichever way the chunk resolves: one chunk read in exactly one of
// the four read counters, and for a sealed chunk one access to the shared
// cache — the same as a whole-chunk read, although only the bytes asked for
// are moved.
func TestPartialReadCounters(t *testing.T) {
	const blocks = 64 * 6
	rng := rand.New(rand.NewSource(3))
	base := device.NewMemStore(512)
	img := fill(rng, blocks*512)
	base.WriteBlocks(0, img)
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: 16})
	s := NewStore(ix, blocks, base)
	mem := device.NewMemStore(512)
	mem.WriteBlocks(0, img)
	both := func(lba uint64, buf []byte) { s.WriteBlocks(lba, buf); mem.WriteBlocks(lba, buf) }
	both(0, fill(rng, 64*512))  // chunk 0: sealed below
	both(64, fill(rng, 64*512)) // chunk 1: sealed, then trimmed in a later layer
	s.Snapshot()
	s.TrimBlocks(64, 64)
	mem.TrimBlocks(64, 64)
	s.Snapshot()
	both(2*64+5, fill(rng, 512)) // chunk 2: private
	s.TrimBlocks(3*64, 64)       // chunk 3: private whiteout
	mem.TrimBlocks(3*64, 64)
	// chunk 4: falls through to the base.

	type counts struct{ private, zero, shared, base, hits, misses uint64 }
	read := func() counts {
		return counts{s.PrivateReads, s.ZeroReads, s.SharedReads, s.BaseReads, ix.cache.Hits(), ix.cache.Misses()}
	}
	for _, tc := range []struct {
		name  string
		chunk uint64
		want  counts // per read
	}{
		{"sealed, cold", 0, counts{shared: 1, misses: 1}},
		{"sealed, resident", 0, counts{shared: 1, hits: 1}},
		{"sealed whiteout", 1, counts{zero: 1}},
		{"private", 2, counts{private: 1}},
		{"private whiteout", 3, counts{zero: 1}},
		{"base", 4, counts{base: 1}},
	} {
		for _, r := range []struct{ off, n uint64 }{{7, 3}, {0, 64}} { // partial, then whole
			if tc.name == "sealed, cold" && r.off == 0 {
				continue // the partial read has filled the cache
			}
			before := read()
			got, want := make([]byte, r.n*512), make([]byte, r.n*512)
			s.ReadBlocks(tc.chunk*64+r.off, got)
			mem.ReadBlocks(tc.chunk*64+r.off, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: blocks %d+%d read wrong", tc.name, r.off, r.n)
			}
			after := read()
			delta := counts{after.private - before.private, after.zero - before.zero, after.shared - before.shared,
				after.base - before.base, after.hits - before.hits, after.misses - before.misses}
			if delta != tc.want {
				t.Fatalf("%s: blocks %d+%d counted %+v, want %+v", tc.name, r.off, r.n, delta, tc.want)
			}
		}
	}
}

// TestSealedChunkBytesNeverChange is why a reader may take a sealed chunk in
// place instead of staging a copy (DESIGN §11): the bytes are content-
// addressed, so the index never rewrites them and the cache only ever drops
// a line, never recycles its buffer. A view taken before the line is evicted
// and refilled must still read the same afterwards, as must the refilled one.
func TestSealedChunkBytesNeverChange(t *testing.T) {
	const chunks = 64
	rng := rand.New(rand.NewSource(17))
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: 8}) // one line per cache shard
	golden := NewStore(ix, chunks*64, nil)
	img := fill(rng, chunks*64*512)
	golden.WriteBlocks(0, img)
	layer := golden.Snapshot()
	clone := golden.Clone()

	key := layer.entries[0].hash
	if ix.view(key); !ix.cache.Contains(key, 1) {
		t.Fatal("a miss did not fill the shared cache")
	}
	held := ix.view(key) // the resident line itself
	want := crc32.ChecksumIEEE(img[:64*512])
	if crc32.ChecksumIEEE(held) != want {
		t.Fatal("view of chunk 0 does not hold chunk 0")
	}
	// Sub-chunk reads of every other chunk push chunk 0 out of its shard.
	got := make([]byte, 512)
	for cn := uint64(1); cn < chunks; cn++ {
		clone.ReadBlocks(cn*64+cn%64, got)
		if off := (cn*64 + cn%64) * 512; !bytes.Equal(got, img[off:off+512]) {
			t.Fatalf("chunk %d block %d read wrong", cn, cn%64)
		}
	}
	if ix.cache.Contains(key, 1) {
		t.Fatal("chunk 0 was not evicted: the test needs a smaller cache")
	}
	if crc32.ChecksumIEEE(held) != want {
		t.Fatal("an evicted line's bytes changed under a reader holding them")
	}
	misses := ix.cache.Misses()
	clone.ReadBlocks(9, got) // refill
	if ix.cache.Misses() != misses+1 || !bytes.Equal(got, img[9*512:10*512]) {
		t.Fatalf("refill: %d misses (want %d), data ok=%v", ix.cache.Misses(), misses+1, bytes.Equal(got, img[9*512:10*512]))
	}
	if crc32.ChecksumIEEE(held) != want || crc32.ChecksumIEEE(ix.view(key)) != want {
		t.Fatal("chunk 0 reads differently across an eviction and refill")
	}
	clone.Close()
	golden.Close()
}

// TestCacheLinesAreIndexChunks: the content cache holds each sealed chunk
// once (DESIGN §11). Every resident line is the index's own chunk, sharing
// its backing array, not a copy of it; and evicting a line neither poisons
// nor recycles the chunk — with bufpool.Poison set a released line is
// overwritten with 0xDB, so a chunk the cache let go of as its own would read
// differently afterwards.
func TestCacheLinesAreIndexChunks(t *testing.T) {
	defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
	bufpool.Poison = true
	const chunks = 64
	rng := rand.New(rand.NewSource(23))
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: 16})
	golden := NewStore(ix, chunks*64, nil)
	img := fill(rng, chunks*64*512)
	golden.WriteBlocks(0, img)
	layer := golden.Snapshot()
	clone := golden.Clone()
	got := make([]byte, 512)
	for pass := 0; pass < 4; pass++ {
		for cn := uint64(0); cn < chunks; cn++ {
			lba := cn*64 + uint64(rng.Intn(64))
			if clone.ReadBlocks(lba, got); !bytes.Equal(got, img[lba*512:(lba+1)*512]) {
				t.Fatalf("pass %d: block %d read wrong", pass, lba)
			}
		}
		resident := 0
		for cn := uint64(0); cn < chunks; cn++ {
			key := layer.entries[cn].hash
			data := ix.chunks[key].data
			if !bytes.Equal(data, img[cn*64*512:(cn+1)*64*512]) {
				t.Fatalf("pass %d: chunk %d changed after the cache evicted it", pass, cn)
			}
			if !ix.cache.Contains(key, 1) {
				continue
			}
			resident++
			if line := ix.cache.View(key); &line[0] != &data[0] {
				t.Fatalf("pass %d: chunk %d's cache line is a copy, not the index's chunk", pass, cn)
			}
		}
		if resident == 0 || resident == chunks {
			t.Fatalf("pass %d: %d of %d chunks resident: the test needs evictions", pass, resident, chunks)
		}
	}
	clone.Close()
	golden.Close()
}

// TestStoreOverBase checks the fall-through read path over a backing
// store: unwritten extents come from the base, writes shadow it, and
// ContentCRC over the composite matches an equivalent MemStore.
func TestStoreOverBase(t *testing.T) {
	const blocks = 1030 // deliberately not a multiple of the 64-block chunk
	rng := rand.New(rand.NewSource(13))
	base := device.NewMemStore(512)
	img := fill(rng, blocks*512)
	base.WriteBlocks(0, img)

	ix := NewIndex(Config{BlockSize: 512})
	s := NewStore(ix, blocks, base)
	mem := device.NewMemStore(512)
	mem.WriteBlocks(0, img)

	got := make([]byte, 130*512)
	want := make([]byte, 130*512)
	s.ReadBlocks(900, got) // spans the clamped tail chunk
	mem.ReadBlocks(900, want)
	if !bytes.Equal(got, want) {
		t.Fatal("base fall-through read mismatch")
	}
	if s.BaseReads == 0 {
		t.Fatal("BaseReads not counted")
	}

	w := fill(rng, 3*512)
	s.WriteBlocks(70, w)
	mem.WriteBlocks(70, w)
	if s.ContentCRC() != mem.ContentCRC() {
		t.Fatal("composite ContentCRC mismatch after shadowing write")
	}
	if base.ContentCRC() == s.ContentCRC() {
		t.Fatal("write leaked into the backing store fingerprint")
	}
}

// TestLayerInfos sanity-checks the operator view.
func TestLayerInfos(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := NewIndex(Config{BlockSize: 512})
	g := NewStore(ix, 1024, nil)
	g.WriteBlocks(0, fill(rng, 128*512))
	g.Snapshot()
	c := g.Clone()
	c.WriteBlocks(0, fill(rng, 512))
	c.Snapshot()
	infos := c.LayerInfos()
	if len(infos) != 2 {
		t.Fatalf("want 2 layers, got %d", len(infos))
	}
	if infos[0].Refs != 2 { // golden chain + clone chain
		t.Fatalf("base layer refs = %d, want 2", infos[0].Refs)
	}
	if infos[1].Refs != 1 {
		t.Fatalf("private layer refs = %d, want 1", infos[1].Refs)
	}
	if infos[0].CRC == 0 && infos[0].Chunks == 0 {
		t.Fatal("empty base layer info")
	}
	if Lines()["cow-store"] == 0 {
		t.Fatal("Table I line count empty")
	}
	c.Close()
	g.Close()
}

// TestBreakHoldsOnlyTouchedPages: a 4 KiB boot write that breaks a 32 KiB
// shared chunk keeps one page of its own, not the chunk — the rest still
// reads from the sealed bytes — while the books count the break exactly as a
// whole-chunk copy did. Snapshotting and cloning the partly private chunks
// flattens them back to the same content.
func TestBreakHoldsOnlyTouchedPages(t *testing.T) {
	const chunks = 128
	const header = 256 // a record and its page table, per chunk
	rng := rand.New(rand.NewSource(21))
	ix := NewIndex(Config{BlockSize: 512})
	golden := NewStore(ix, chunks*64, nil)
	mem := device.NewMemStore(512)
	img := fill(rng, chunks*64*512)
	golden.WriteBlocks(0, img)
	mem.WriteBlocks(0, img)
	golden.Snapshot()
	o := &oracle{cow: golden.Clone(), mem: mem}
	for cn := uint64(0); cn < chunks; cn++ {
		o.write(cn*64+8*(cn%8), fill(rng, 4096)) // one page, a different one per chunk
	}
	if got, max := o.cow.privateBytes(), chunks*(4096+header); got > max {
		t.Fatalf("%d one-page breaks hold %d private bytes, want <= %d (a whole chunk each would be %d)",
			chunks, got, max, chunks*64*512)
	}
	if o.cow.CowBreaks != chunks || o.cow.ChunkCopies != chunks || o.cow.SharedReads != chunks {
		t.Fatalf("breaks %d, copies %d, shared reads %d; want %d of each",
			o.cow.CowBreaks, o.cow.ChunkCopies, o.cow.SharedReads, chunks)
	}
	o.check(t, 0, chunks*64)
	div := o.cow.DivergenceCRC()
	if div == 0 {
		t.Fatal("partly private clone reports no divergence")
	}
	c := o.cow.Clone() // seals the partly private chunks
	if c.ContentCRC() != mem.ContentCRC() || o.cow.ContentCRC() != mem.ContentCRC() {
		t.Fatal("sealing partly private chunks changed their content")
	}
	c.Close()
	o.cow.Close()
	golden.Close()
}

// TestBreakSourceOutlivesEviction: a break takes its source from the index,
// not the cache line, in the one cache access a read-modify-write break has
// always made (a miss that fills cold, a hit resident). The unwritten pages
// then read right after the line is evicted, without touching the cache.
func TestBreakSourceOutlivesEviction(t *testing.T) {
	const chunks = 64
	rng := rand.New(rand.NewSource(23))
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: 8}) // one line per cache shard
	golden := NewStore(ix, chunks*64, nil)
	mem := device.NewMemStore(512)
	img := fill(rng, chunks*64*512)
	golden.WriteBlocks(0, img)
	mem.WriteBlocks(0, img)
	layer := golden.Snapshot()
	o := &oracle{cow: golden.Clone(), mem: mem}
	cache := ix.cache

	key := layer.entries[0].hash
	h, m := cache.Hits(), cache.Misses()
	o.write(16, fill(rng, 4096)) // cold break of chunk 0: a miss that fills
	if cache.Hits() != h || cache.Misses() != m+1 || !cache.Contains(key, 1) {
		t.Fatalf("cold break: %d hits, %d misses, resident %v; want one miss that fills",
			cache.Hits()-h, cache.Misses()-m, cache.Contains(key, 1))
	}
	o.check(t, 64, 8) // chunk 1 resident
	h, m = cache.Hits(), cache.Misses()
	o.write(64+3, fill(rng, 512)) // resident break of chunk 1: a hit
	if cache.Hits() != h+1 || cache.Misses() != m {
		t.Fatalf("resident break: %d hits, %d misses; want one hit", cache.Hits()-h, cache.Misses()-m)
	}
	if p := o.cow.mut[0]; &p.src[0] != &ix.chunks[key].data[0] {
		t.Fatal("the break's source is not the index's own copy of the chunk")
	}

	// Push chunk 0's line out of its shard.
	for cn := uint64(2); cn < chunks; cn++ {
		o.check(t, cn*64+cn%64, 1)
	}
	if cache.Contains(key, 1) {
		t.Fatal("chunk 0 was not evicted: the test needs a smaller cache")
	}
	var before, after metrics.CounterSet
	ix.Collect(&before)
	reads := o.cow.PrivateReads
	o.check(t, 0, 64) // source pages and the private one
	ix.Collect(&after)
	for _, name := range before.Names() {
		if before.Get(name) != after.Get(name) {
			t.Fatalf("a private read moved %s: %d -> %d", name, before.Get(name), after.Get(name))
		}
	}
	if o.cow.PrivateReads != reads+1 {
		t.Fatalf("private read counted %d, want 1", o.cow.PrivateReads-reads)
	}
	o.cow.Close()
	golden.Close()
}
