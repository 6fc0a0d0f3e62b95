// Package cow implements a layered, content-addressed copy-on-write store
// behind a device namespace. One golden image is sealed into an immutable
// layer chain; Clone derives a writable store from it in O(layers) without
// copying a byte, and the first write to a shared extent breaks exactly
// that chunk private ("CoW break"), tracked with the resync engine's
// DirtyRegions machinery. All sealed chunks live in one content-addressed
// Index shared by every clone, so identical chunks are stored once across
// tenants (dedup) and freed by refcount when the last referencing layer is
// closed. The Index can front its chunks with a cache.Cache keyed by
// content hash, which is what makes cross-tenant sharing visible to the
// host cache: two clones reading the same golden block hit the same cache
// line even though their guest LBAs live in different namespaces.
package cow

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"sync"

	"nvmetro/internal/cache"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/metrics"
	"nvmetro/internal/storfn"
)

// chunkBlocks is the CoW granule in blocks (64 blocks = 32 KiB at 512-byte
// LBAs), matching device.MemStore's allocation granule so the
// sparse-vs-materialized ContentCRC equivalence holds chunk for chunk.
const chunkBlocks = 64

// Config parameterizes a snapshot/clone domain.
type Config struct {
	// BlockSize is the logical block size in bytes (default 512).
	BlockSize uint32
	// CacheChunks, when nonzero, fronts the chunk index with a shared
	// content-addressed cache.Cache of that many chunks.
	CacheChunks uint64
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 512
	}
	return c
}

func (c Config) chunkBytes() int { return chunkBlocks * int(c.BlockSize) }

// pageBytes is the granule a private chunk is held in: a guest page, or the
// whole chunk when pages do not tile it.
func (c Config) pageBytes() int {
	if c.chunkBytes()%guestmem.PageSize != 0 {
		return c.chunkBytes()
	}
	return guestmem.PageSize
}

// idxEnt is one deduplicated chunk.
type idxEnt struct {
	data []byte
	refs int
}

// Index is the content-addressed chunk store shared by a golden image and
// all of its clones. Chunks are keyed by a 64-bit FNV-1a hash of their
// contents; hash collisions are resolved by deterministic linear probing
// with a byte compare, so equal contents always map to one slot and
// distinct contents never alias. Every sealed layer holds one reference
// per chunk it maps; Release drops a reference and frees the chunk when
// the count reaches zero (GC on trim/close).
type Index struct {
	mu     sync.Mutex
	cfg    Config
	chunks map[uint64]*idxEnt
	cache  *cache.Cache // optional, keyed by chunk hash, 1 "block" = 1 chunk

	stored    uint64 // chunks holding bytes right now
	dedupHits uint64 // Puts that matched an existing chunk
	released  uint64 // chunks freed by refcount GC
}

// NewIndex creates an empty chunk index. When cfg.CacheChunks is nonzero
// the index is fronted by a shared content-addressed cache.
func NewIndex(cfg Config) *Index {
	cfg = cfg.withDefaults()
	ix := &Index{cfg: cfg, chunks: make(map[uint64]*idxEnt)}
	if cfg.CacheChunks > 0 {
		ix.cache = cache.New(cache.Config{
			BlockSize:      uint32(cfg.chunkBytes()),
			CapacityBlocks: cfg.CacheChunks,
			WritePolicy:    cache.WriteAround,
		})
	}
	return ix
}

// Cache returns the shared content-addressed cache, or nil.
func (ix *Index) Cache() *cache.Cache { return ix.cache }

// fnv64 is FNV-1a, inlined to keep hashing allocation-free.
func fnv64(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// put interns data (taking ownership of the slice) and returns its slot
// with one reference added. Equal contents dedup onto the same slot.
func (ix *Index) put(data []byte) uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	key := fnv64(data)
	for {
		e := ix.chunks[key]
		if e == nil {
			ix.chunks[key] = &idxEnt{data: data, refs: 1}
			ix.stored++
			return key
		}
		if bytes.Equal(e.data, data) {
			e.refs++
			ix.dedupHits++
			return key
		}
		key++ // deterministic linear probe on collision
	}
}

// ref adds a reference to an existing slot.
func (ix *Index) ref(key uint64) {
	ix.mu.Lock()
	ix.chunks[key].refs++
	ix.mu.Unlock()
}

// release drops a reference, garbage-collecting the chunk at zero.
func (ix *Index) release(key uint64) {
	ix.mu.Lock()
	e := ix.chunks[key]
	e.refs--
	if e.refs == 0 {
		delete(ix.chunks, key)
		ix.stored--
		ix.released++
		if ix.cache != nil {
			ix.cache.Invalidate(key, 1)
		}
	}
	ix.mu.Unlock()
}

// view returns the sealed chunk at key without copying it, going through
// the shared cache when one is configured: the resident line on a hit, else
// the index's own bytes, which fill the cache on the way (sealed chunks are
// immutable so there are no coherence windows to arbitrate). Either way the
// bytes are read-only and stay what they are for as long as the caller's
// layer holds its reference — a chunk is content-addressed, never rewritten
// in place, and an evicted cache line is dropped, not recycled — so a reader
// takes the part it wants and nothing is staged. With own set the cache sees
// the same access but the index's own bytes come back even on a hit: what a
// CoW break keeps as its source, which the index holds anyway while the chain
// references the chunk, where a kept cache line would outlive its eviction.
func (ix *Index) view(key uint64, own bool) []byte {
	var line []byte
	if ix.cache != nil {
		if line = ix.cache.View(key); line != nil && !own {
			return line
		}
	}
	ix.mu.Lock()
	data := ix.chunks[key].data
	ix.mu.Unlock()
	if ix.cache != nil && line == nil {
		ix.cache.CommitFill(ix.cache.BeginFill(key, 1), data)
	}
	return data
}

// Chunks reports the number of unique chunks resident in the index.
func (ix *Index) Chunks() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.chunks)
}

// Collect exports index counters (cow.index.*) and, when a shared cache is
// configured, its counters under cow.cache.*.
func (ix *Index) Collect(cs *metrics.CounterSet) {
	ix.mu.Lock()
	cs.Add("cow.index.chunks", uint64(len(ix.chunks)))
	cs.Add("cow.index.dedup_hits", ix.dedupHits)
	cs.Add("cow.index.released", ix.released)
	ix.mu.Unlock()
	if ix.cache != nil {
		cs.Add("cow.cache.hits", ix.cache.Hits())
		cs.Add("cow.cache.misses", ix.cache.Misses())
	}
}

// Backing is the read side of a store the layer chain sits over.
type Backing interface {
	ReadBlocks(lba uint64, buf []byte)
}

// layerEnt is one chunk mapping in a sealed layer: either a content hash
// or a whiteout (the chunk is all zeros from this layer up).
type layerEnt struct {
	hash  uint64
	white bool
}

// Layer is one immutable snapshot delta: a map from chunk number to sealed
// content. Layers are sealed by Store.Snapshot, shared by reference among
// clones, and release their chunk references when the last chain drops
// them.
type Layer struct {
	seq     uint64
	entries map[uint64]layerEnt
	crc     uint32 // metadata CRC over sorted (chunk, hash|white)
	refs    int    // referencing chains; guarded by the owning Index's mu
}

// Seq returns the layer's sequence number within its domain.
func (l *Layer) Seq() uint64 { return l.seq }

// Chunks returns the number of chunk mappings (including whiteouts).
func (l *Layer) Chunks() int { return len(l.entries) }

// Whiteouts returns the number of whiteout mappings.
func (l *Layer) Whiteouts() int {
	n := 0
	for _, e := range l.entries {
		if e.white {
			n++
		}
	}
	return n
}

// CRC returns the layer's metadata fingerprint, fixed at seal time. An
// unchanged base-layer CRC across a boot storm is the cheap proof that no
// tenant write leaked into the shared image.
func (l *Layer) CRC() uint32 { return l.crc }

func sealCRC(entries map[uint64]layerEnt) uint32 {
	cns := make([]uint64, 0, len(entries))
	for cn := range entries {
		cns = append(cns, cn)
	}
	sort.Slice(cns, func(i, j int) bool { return cns[i] < cns[j] })
	var buf [17]byte
	crc := crc32.NewIEEE()
	for _, cn := range cns {
		e := entries[cn]
		binary.LittleEndian.PutUint64(buf[0:], cn)
		binary.LittleEndian.PutUint64(buf[8:], e.hash)
		if e.white {
			buf[16] = 1
		} else {
			buf[16] = 0
		}
		crc.Write(buf[:])
	}
	return crc.Sum32()
}

// private is a chunk broken off the shared chain (or first written in fresh
// space), held one page at a time: a write allocates and fills only the pages
// it touches, and a page not yet written still reads from src — the chunk's
// content at the break, the index's own bytes (Index.view), or nil for
// zeros. A chunk broken over a Backing has every page filled at the break
// instead: unlike sealed chunks, a backing store's bytes may change under it.
type private struct {
	src   []byte
	pages [][]byte
}

// read copies the chunk's bytes from off on into dst; ps is the page size.
func (p *private) read(off int, dst []byte, ps int) {
	for len(dst) > 0 {
		po := off % ps
		n := min(len(dst), ps-po)
		switch pg := p.pages[off/ps]; {
		case pg != nil:
			copy(dst[:n], pg[po:])
		case p.src != nil:
			copy(dst[:n], p.src[off:])
		default:
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// write overwrites n bytes from off with data, or with zeros when data is
// nil. Only the pages it touches are allocated, and one it covers in part is
// filled with its current content first (read-modify-write per page).
func (p *private) write(off, n int, data []byte, ps int) {
	for n > 0 {
		i, po := off/ps, off%ps
		k := min(n, ps-po)
		pg := p.pages[i]
		if pg == nil {
			pg = make([]byte, ps)
			if k < ps && p.src != nil {
				copy(pg, p.src[i*ps:])
			}
			p.pages[i] = pg
		}
		if data == nil {
			clear(pg[po : po+k])
		} else {
			copy(pg[po:], data[:k])
			data = data[k:]
		}
		off, n = off+k, n-k
	}
}

// Store is a writable copy-on-write view over a layer chain, implementing
// device.Store behind a namespace. Reads resolve top-down: private dirty
// chunks, then sealed layers newest-first, then the backing store (nil
// means zeros). The first write into a shared chunk breaks it private — a
// CoW break — and records the extent in a DirtyRegions set, so divergence
// from the golden image is enumerable exactly like a degraded mirror's
// backlog.
type Store struct {
	cfg    Config
	idx    *Index
	base   Backing // fall-through below the chain; nil reads zeros
	blocks uint64

	chain    []*Layer            // bottom .. top, all sealed
	shared   int                 // chain[:shared] was inherited at clone time
	mut      map[uint64]*private // private dirty chunks
	mutWhite map[uint64]bool     // private whiteouts (trimmed chunks)
	broken   storfn.DirtyRegions

	nextSeq *uint64 // layer sequence counter, shared within the domain

	// Counters (single writer per store: the device proc serving its
	// namespace, like MemStore).
	CowBreaks    uint64 // chunks first materialized over shared content
	ChunkCopies  uint64 // CoW breaks that needed a read-modify-write copy
	SharedReads  uint64 // chunk reads served from sealed layers
	PrivateReads uint64 // chunk reads served from private dirty chunks
	BaseReads    uint64 // chunk reads that fell through to the backing store
	ZeroReads    uint64 // chunk reads of never-written space
}

// NewStore creates an empty writable store of the given size over base
// (nil for a zero backing), rooted in idx.
func NewStore(idx *Index, blocks uint64, base Backing) *Store {
	var seq uint64
	return &Store{
		cfg:      idx.cfg,
		idx:      idx,
		base:     base,
		blocks:   blocks,
		mut:      make(map[uint64]*private),
		mutWhite: make(map[uint64]bool),
		nextSeq:  &seq,
	}
}

// Blocks returns the store's logical size in blocks.
func (s *Store) Blocks() uint64 { return s.blocks }

// Index returns the chunk index this store is rooted in.
func (s *Store) Index() *Index { return s.idx }

// Layers returns the sealed chain, bottom to top.
func (s *Store) Layers() []*Layer { return append([]*Layer(nil), s.chain...) }

// Dirty reports whether the store has unsealed private state.
func (s *Store) Dirty() bool { return len(s.mut) > 0 || len(s.mutWhite) > 0 }

// BrokenBlocks returns the total CoW-broken block count.
func (s *Store) BrokenBlocks() uint64 { return s.broken.Blocks() }

// top returns the chunk's mapping in the newest sealed layer that has one.
func (s *Store) top(cn uint64) (layerEnt, bool) {
	for i := len(s.chain) - 1; i >= 0; i-- {
		if e, ok := s.chain[i].entries[cn]; ok {
			return e, true
		}
	}
	return layerEnt{}, false
}

// resolveShared copies the chunk's sealed/base content from byte off on into
// dst (whole blocks, within the chunk), returning true when any layer or the
// base supplied bytes and false when the chunk is logically zero. It never
// consults private state. A sealed chunk is read in place — only the bytes
// asked for move — and counts as one chunk read whatever part is taken.
func (s *Store) resolveShared(cn, off uint64, dst []byte) bool {
	if e, ok := s.top(cn); ok {
		if e.white {
			clear(dst)
			return false
		}
		copy(dst, s.idx.view(e.hash, false)[off:])
		s.SharedReads++
		return true
	}
	if s.base != nil {
		bs := uint64(s.cfg.BlockSize)
		lba := cn*chunkBlocks + off/bs
		// Clamp the tail chunk to the device size.
		nb := uint64(len(dst)) / bs
		if lba+nb > s.blocks {
			nb = s.blocks - lba
			clear(dst[nb*bs:])
		}
		s.base.ReadBlocks(lba, dst[:nb*bs])
		s.BaseReads++
		return true
	}
	clear(dst)
	return false
}

// readChunk copies the chunk's current logical content from byte off on into
// dst.
func (s *Store) readChunk(cn, off uint64, dst []byte) {
	if p := s.mut[cn]; p != nil {
		p.read(int(off), dst, s.cfg.pageBytes())
		s.PrivateReads++
		return
	}
	if s.mutWhite[cn] {
		clear(dst)
		s.ZeroReads++
		return
	}
	if !s.resolveShared(cn, off, dst) {
		s.ZeroReads++
	}
}

// sharedHas reports whether the shared chain or the base would supply
// content for the chunk (the condition under which making it private is a
// CoW break rather than a write into fresh space).
func (s *Store) sharedHas(cn uint64) bool {
	if e, ok := s.top(cn); ok {
		return !e.white
	}
	return s.base != nil
}

// materialize returns the chunk's private record, breaking it off the shared
// chain on first touch. When fill is true the break reads the shared content
// for a read-modify-write — once, as one chunk read: a sealed chunk becomes
// the record's source, a backing store's chunk is copied into every page. A
// caller about to overwrite the whole chunk passes false and saves the read.
func (s *Store) materialize(cn uint64, fill bool) *private {
	if p := s.mut[cn]; p != nil {
		return p
	}
	ps := s.cfg.pageBytes()
	p := &private{pages: make([][]byte, s.cfg.chunkBytes()/ps)}
	if !s.mutWhite[cn] && s.sharedHas(cn) {
		s.CowBreaks++
		if fill {
			s.ChunkCopies++
			if e, ok := s.top(cn); ok {
				p.src = s.idx.view(e.hash, true)
				s.SharedReads++
			} else {
				flat := make([]byte, s.cfg.chunkBytes())
				s.resolveShared(cn, 0, flat)
				for i := range p.pages {
					p.pages[i] = flat[i*ps : (i+1)*ps : (i+1)*ps]
				}
			}
		}
	}
	delete(s.mutWhite, cn)
	s.mut[cn] = p
	s.broken.Add(cn*chunkBlocks, chunkBlocks)
	return p
}

// ReadBlocks implements device.Store.
func (s *Store) ReadBlocks(lba uint64, buf []byte) {
	cb := uint64(chunkBlocks)
	bs := uint64(s.cfg.BlockSize)
	for len(buf) > 0 {
		cn, off := lba/cb, (lba%cb)*bs
		n := s.cfg.chunkBytes() - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		s.readChunk(cn, off, buf[:n])
		buf = buf[n:]
		lba += uint64(n) / bs
	}
}

// WriteBlocks implements device.Store.
func (s *Store) WriteBlocks(lba uint64, buf []byte) {
	cb := uint64(chunkBlocks)
	bs := uint64(s.cfg.BlockSize)
	for len(buf) > 0 {
		cn, off := lba/cb, (lba%cb)*bs
		n := s.cfg.chunkBytes() - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		s.materialize(cn, off != 0 || n != s.cfg.chunkBytes()).write(int(off), n, buf[:n], s.cfg.pageBytes())
		buf = buf[n:]
		lba += uint64(n) / bs
	}
}

// TrimBlocks implements device.Store. Wholly covered chunks become private
// whiteouts (dropping any private buffer and shadowing sealed content);
// partially covered chunks are broken private and the range zeroed.
func (s *Store) TrimBlocks(lba uint64, blocks uint32) {
	cb := uint64(chunkBlocks)
	bs := uint64(s.cfg.BlockSize)
	end := lba + uint64(blocks)
	for lba < end {
		cn, off := lba/cb, lba%cb
		n := cb - off
		if lba+n > end {
			n = end - lba
		}
		if off == 0 && n == cb {
			if _, had := s.mut[cn]; !had && !s.mutWhite[cn] && s.sharedHas(cn) {
				s.CowBreaks++
			}
			delete(s.mut, cn)
			s.mutWhite[cn] = true
			s.broken.Add(cn*cb, cb)
		} else {
			s.materialize(cn, true).write(int(off*bs), int(n*bs), nil, s.cfg.pageBytes())
		}
		lba += n
	}
}

// Snapshot seals the private dirty state into a new immutable layer and
// appends it to the chain, returning the layer (nil when nothing was
// dirty). Cost is O(dirty chunks), independent of image size: each dirty
// chunk is flattened into one buffer and interned once in the index
// (all-zero chunks become whiteouts, preserving ContentCRC's zero-skip
// semantics and deduplicating trimmed space for free) and the private maps
// are reset.
func (s *Store) Snapshot() *Layer {
	if !s.Dirty() {
		return nil
	}
	entries := make(map[uint64]layerEnt, len(s.mut)+len(s.mutWhite))
	for cn, p := range s.mut {
		c := make([]byte, s.cfg.chunkBytes())
		p.read(0, c, s.cfg.pageBytes())
		if allZero(c) {
			entries[cn] = layerEnt{white: true}
			continue
		}
		entries[cn] = layerEnt{hash: s.idx.put(c)}
	}
	for cn := range s.mutWhite {
		entries[cn] = layerEnt{white: true}
	}
	(*s.nextSeq)++
	l := &Layer{seq: *s.nextSeq, entries: entries, crc: sealCRC(entries), refs: 1}
	s.chain = append(s.chain, l)
	s.mut = make(map[uint64]*private)
	s.mutWhite = make(map[uint64]bool)
	s.broken = storfn.DirtyRegions{}
	return l
}

// Clone seals any dirty state and derives a new writable store over the
// same chain, index and backing store. No chunk is copied: the clone holds
// references to the sealed layers, and its first write to any shared chunk
// CoW-breaks just that chunk. Cost is O(layers) metadata.
func (s *Store) Clone() *Store {
	s.Snapshot()
	s.idx.mu.Lock()
	for _, l := range s.chain {
		l.refs++
	}
	s.idx.mu.Unlock()
	return &Store{
		cfg:      s.cfg,
		idx:      s.idx,
		base:     s.base,
		blocks:   s.blocks,
		chain:    append([]*Layer(nil), s.chain...),
		shared:   len(s.chain),
		mut:      make(map[uint64]*private),
		mutWhite: make(map[uint64]bool),
		nextSeq:  s.nextSeq,
	}
}

// Close releases the store's layer references. A layer dropped by its last
// chain releases its chunk references in the index, which frees chunks no
// other layer maps — refcounted GC on clone deletion.
func (s *Store) Close() {
	var free []*Layer
	s.idx.mu.Lock()
	for _, l := range s.chain {
		l.refs--
		if l.refs == 0 {
			free = append(free, l)
		}
	}
	s.idx.mu.Unlock()
	for _, l := range free {
		for _, e := range l.entries {
			if !e.white {
				s.idx.release(e.hash)
			}
		}
	}
	s.chain = nil
	s.mut = make(map[uint64]*private)
	s.mutWhite = make(map[uint64]bool)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ContentCRC fingerprints the store's full logical contents with exactly
// device.MemStore's algorithm — nonzero chunks hashed in LBA order, zero
// chunks skipped — so a cow.Store and a MemStore holding the same bytes
// produce the same CRC regardless of which chunks are materialized where.
func (s *Store) ContentCRC() uint32 {
	cb := uint64(chunkBlocks)
	total := (s.blocks + cb - 1) / cb
	tmp := make([]byte, s.cfg.chunkBytes())
	var idbuf [8]byte
	crc := crc32.NewIEEE()
	for cn := uint64(0); cn < total; cn++ {
		nb := cb
		if cn*cb+nb > s.blocks {
			nb = s.blocks - cn*cb
			clear(tmp)
		}
		s.ReadBlocks(cn*cb, tmp[:nb*uint64(s.cfg.BlockSize)])
		if allZero(tmp) {
			continue
		}
		binary.LittleEndian.PutUint64(idbuf[:], cn)
		crc.Write(idbuf[:])
		crc.Write(tmp)
	}
	return crc.Sum32()
}

// DivergenceCRC fingerprints only what this store changed since it was
// cloned: private dirty chunks plus the metadata of layers sealed above
// the inherited chain. Two clones that wrote different bytes diverge; a
// clone that never wrote reports 0. O(private state), cheap enough to
// check hundreds of tenants per run.
func (s *Store) DivergenceCRC() uint32 {
	if len(s.chain) == s.shared && !s.Dirty() {
		return 0
	}
	crc := crc32.NewIEEE()
	var buf [17]byte
	for _, l := range s.chain[s.shared:] {
		binary.LittleEndian.PutUint64(buf[0:], l.seq)
		binary.LittleEndian.PutUint32(buf[8:], l.crc)
		crc.Write(buf[:12])
	}
	cns := make([]uint64, 0, len(s.mut)+len(s.mutWhite))
	for cn := range s.mut {
		cns = append(cns, cn)
	}
	for cn := range s.mutWhite {
		cns = append(cns, cn)
	}
	sort.Slice(cns, func(i, j int) bool { return cns[i] < cns[j] })
	var flat []byte
	for _, cn := range cns {
		binary.LittleEndian.PutUint64(buf[0:], cn)
		if p := s.mut[cn]; p != nil {
			if flat == nil {
				flat = make([]byte, s.cfg.chunkBytes())
			}
			p.read(0, flat, s.cfg.pageBytes())
			buf[16] = 0
			crc.Write(buf[:17])
			crc.Write(flat)
		} else {
			buf[16] = 1
			crc.Write(buf[:17])
		}
	}
	return crc.Sum32()
}

// LayerInfo describes one sealed layer for operator tooling.
type LayerInfo struct {
	Seq       uint64
	Chunks    int
	Whiteouts int
	Refs      int
	CRC       uint32
}

// LayerInfos reports the chain bottom-to-top.
func (s *Store) LayerInfos() []LayerInfo {
	out := make([]LayerInfo, 0, len(s.chain))
	s.idx.mu.Lock()
	defer s.idx.mu.Unlock()
	for _, l := range s.chain {
		out = append(out, LayerInfo{
			Seq: l.seq, Chunks: len(l.entries), Whiteouts: l.Whiteouts(),
			Refs: l.refs, CRC: l.crc,
		})
	}
	return out
}

// Collect exports the store's counters under the given prefix (for
// example "cow.vm3.").
func (s *Store) Collect(prefix string, cs *metrics.CounterSet) {
	cs.Add(prefix+"cow_breaks", s.CowBreaks)
	cs.Add(prefix+"chunk_copies", s.ChunkCopies)
	cs.Add(prefix+"shared_reads", s.SharedReads)
	cs.Add(prefix+"private_reads", s.PrivateReads)
	cs.Add(prefix+"base_reads", s.BaseReads)
	cs.Add(prefix+"broken_blocks", s.broken.Blocks())
	cs.Add(prefix+"layers", uint64(len(s.chain)))
}
