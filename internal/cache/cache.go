// Package cache is a sharded, block-granular host read cache for the
// NVMetro notify path: the cache classifier steers hot reads to a UIF that
// serves them from this cache and fills it on miss, while every write
// passes through an invalidation window so the cache can never return data
// older than the last completed write — including writes racing in-flight
// fills (the classic stale-fill hazard) and writes landing mid-resync.
//
// Coherence protocol. Reads probe resident blocks directly. A miss opens a
// fill window (BeginFill) before the backend read is issued and installs
// its data only at CommitFill; a write opens a write window (BeginWrite)
// that immediately invalidates the range and cancels every overlapping
// fill, and closes it at EndWrite when the backend write has completed. A
// fill is dropped — counted as a dirty-window conflict — if a write window
// overlapped any part of its lifetime: BeginWrite and EndWrite both cancel
// open overlapping fills, and CommitFill re-checks the windows still open.
// Write windows track overlap the same way: when two write windows (or a
// write window and an external Invalidate) overlap at any point in their
// lifetimes, both are marked conflicted — the backend's final contents
// depend on a commit order the cache cannot observe, even when one window
// closes entirely inside the other. Write-through installs the write's
// payload at EndWrite only if its window was never conflicted; write-around
// only invalidates.
//
// The window table is guarded by one cache-level mutex taken outside the
// per-shard mutexes (lock order: cache, then shard), and installs happen
// under it, so a commit can never slip data past a concurrent invalidation.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"nvmetro/internal/metrics"
)

// WritePolicy selects what a completed guest write leaves in the cache.
type WritePolicy int

const (
	// WriteThrough installs the write's payload when the backend write
	// completes, so re-reads of freshly written data hit.
	WriteThrough WritePolicy = iota
	// WriteAround only invalidates the written range; the next read fills
	// from the backend. Cheapest for write-once data.
	WriteAround
)

func (w WritePolicy) String() string {
	if w == WriteAround {
		return "write-around"
	}
	return "write-through"
}

// Config sizes and parameterizes a Cache.
type Config struct {
	// BlockSize is the cached block size in bytes (the device block size).
	BlockSize uint32
	// CapacityBlocks is the total resident capacity across all shards.
	CapacityBlocks uint64
	// WritePolicy selects write-through or write-around.
	WritePolicy WritePolicy
	// OnEvict, when set, observes every evicted block LBA. It runs after
	// all cache locks are released, so it may call back into the cache or
	// into classifier hint maps.
	OnEvict func(lba uint64)
}

// DefaultConfig returns a 16 MiB, 8-shard, ARC, write-through cache of
// 512-byte blocks.
func DefaultConfig() Config {
	return Config{
		BlockSize:      512,
		CapacityBlocks: 32768,
		WritePolicy:    WriteThrough,
	}
}

// shardBits is log2 of the shard count: eight ARC-managed lock domains.
const (
	shardBits = 3
	nShards   = 1 << shardBits
)

// entry is one resident block.
type entry struct {
	data   []byte
	lastOp uint64 // shard op-clock at the last access, for reuse distance
}

// shard is one lock domain of the cache.
type shard struct {
	mu   sync.Mutex
	data map[uint64]*entry
	pol  *arcPolicy

	ops uint64 // per-block access clock

	hits, misses, admissions, evictions, invalidations uint64

	reuse *metrics.Histogram // op-distance between accesses to the same block
}

// window is one in-flight fill or write over [lba, lba+blocks).
type window struct {
	lba, blocks uint64
	cancelled   bool // fills: a write overlapped the lifetime; drop at commit
	conflicted  bool // writes: another writer overlapped the lifetime; skip install
}

func (w *window) overlaps(lba, blocks uint64) bool {
	return lba < w.lba+w.blocks && w.lba < lba+blocks
}

// Cache is the sharded block cache. All methods are safe for concurrent
// use.
type Cache struct {
	cfg    Config
	shards [nShards]*shard

	mu     sync.Mutex // guards the window tables; outer to shard locks
	fills  map[uint64]*window
	writes map[uint64]*window
	nextID uint64

	conflicts  uint64 // fills dropped because a write window overlapped
	fillAborts uint64
	installs   uint64 // write-through installs that happened
	writeSkips uint64 // write-through installs skipped (overlapping writes)
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	if cfg.CapacityBlocks < nShards {
		cfg.CapacityBlocks = nShards
	}
	c := &Cache{
		cfg:    cfg,
		fills:  make(map[uint64]*window),
		writes: make(map[uint64]*window),
	}
	perShard := int(cfg.CapacityBlocks) / nShards
	for i := range c.shards {
		c.shards[i] = &shard{
			data:  make(map[uint64]*entry),
			pol:   newARC(perShard),
			reuse: metrics.NewHistogram(),
		}
	}
	return c
}

// BlockSize returns the cached block size in bytes.
func (c *Cache) BlockSize() uint32 { return c.cfg.BlockSize }

// shardOf maps a block LBA to its shard by multiplicative hashing, so
// consecutive blocks spread across lock domains.
func (c *Cache) shardOf(lba uint64) *shard {
	return c.shards[shardIndex(lba)]
}

func shardIndex(lba uint64) int {
	return int((lba * 0x9E3779B97F4A7C15) >> (64 - shardBits))
}

// lockRange locks every shard covering [lba, lba+blocks) in index order
// (deadlock-free) and returns the distinct shards locked.
func (c *Cache) lockRange(lba, blocks uint64) []*shard {
	var mask uint
	for b := uint64(0); b < blocks; b++ {
		mask |= 1 << shardIndex(lba+b)
	}
	out := make([]*shard, 0, bits.OnesCount(mask))
	for i, sh := range c.shards {
		if mask&(1<<i) != 0 {
			sh.mu.Lock()
			out = append(out, sh)
		}
	}
	return out
}

func unlockAll(shards []*shard) {
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].mu.Unlock()
	}
}

// Read copies [lba, lba+blocks) into buf if every block is resident,
// reporting a hit. All-or-nothing: a partial hit counts (and serves) as a
// miss, keeping the fast path's single backend read. buf must hold
// blocks*BlockSize bytes.
func (c *Cache) Read(lba uint64, blocks uint64, buf []byte) bool {
	if blocks == 0 {
		return false
	}
	bs := int(c.cfg.BlockSize)
	locked := c.lockRange(lba, blocks)
	defer unlockAll(locked)

	// Probe pass: every block must be resident.
	hit := true
	for b := uint64(0); b < blocks; b++ {
		sh := c.shardOf(lba + b)
		sh.ops++
		if _, ok := sh.data[lba+b]; !ok {
			hit = false
		}
	}
	if !hit {
		for b := uint64(0); b < blocks; b++ {
			c.shardOf(lba+b).misses++
		}
		return false
	}
	for b := uint64(0); b < blocks; b++ {
		key := lba + b
		sh := c.shardOf(key)
		e := sh.data[key]
		copy(buf[int(b)*bs:(int(b)+1)*bs], e.data)
		sh.hit(key, e)
	}
	return true
}

// hit books one served read of resident block key: the hit, its reuse
// distance and the replacement policy's touch. Caller holds sh.mu.
func (sh *shard) hit(key uint64, e *entry) {
	sh.hits++
	sh.reuse.Record(int64(sh.ops - e.lastOp))
	e.lastOp = sh.ops
	sh.pol.Hit(key)
}

// View is Read for one block without the copy: it returns the resident
// block itself, or nil on a miss, with the access counted exactly as Read
// counts it (hit or miss, reuse distance, replacement-policy touch). The
// bytes are the cache's own and read-only; they are what the block holds
// until something installs over, invalidates or evicts it, so a caller whose
// blocks can change reads them before it lets anything else at the cache. A
// caller whose blocks are immutable (content-addressed chunks) may hold them
// as long as it likes: an evicted line is dropped, never recycled.
func (c *Cache) View(lba uint64) []byte {
	sh := c.shardOf(lba)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.ops++
	e, ok := sh.data[lba]
	if !ok {
		sh.misses++
		return nil
	}
	sh.hit(lba, e)
	return e.data
}

// Contains reports whether every block of [lba, lba+blocks) is resident,
// without touching access stats or replacement state.
func (c *Cache) Contains(lba uint64, blocks uint64) bool {
	for b := uint64(0); b < blocks; b++ {
		sh := c.shardOf(lba + b)
		sh.mu.Lock()
		_, ok := sh.data[lba+b]
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// Peek returns a copy of one resident block's data, or nil. Test/debug
// helper; does not touch access stats.
func (c *Cache) Peek(lba uint64) []byte {
	sh := c.shardOf(lba)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.data[lba]
	if !ok {
		return nil
	}
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out
}

// BeginFill opens a fill window over [lba, lba+blocks) and returns its
// handle. Call before issuing the backend read; a write window already
// open over the range cancels the fill at birth.
func (c *Cache) BeginFill(lba, blocks uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	w := &window{lba: lba, blocks: blocks}
	for _, ww := range c.writes {
		if ww.overlaps(lba, blocks) {
			w.cancelled = true
			break
		}
	}
	c.fills[c.nextID] = w
	return c.nextID
}

// CommitFill installs data for the fill window unless a write overlapped
// its lifetime, reporting whether the install happened. data must hold the
// window's blocks*BlockSize bytes read from the backend.
func (c *Cache) CommitFill(fillID uint64, data []byte) bool {
	c.mu.Lock()
	w, ok := c.fills[fillID]
	if !ok {
		c.mu.Unlock()
		return false
	}
	delete(c.fills, fillID)
	if !w.cancelled {
		for _, ww := range c.writes {
			if ww.overlaps(w.lba, w.blocks) {
				w.cancelled = true
				break
			}
		}
	}
	if w.cancelled {
		c.conflicts++
		c.mu.Unlock()
		return false
	}
	evicted := c.installLocked(w.lba, w.blocks, data)
	c.mu.Unlock()
	c.notifyEvicted(evicted)
	return true
}

// AbortFill drops a fill window whose backend read failed.
func (c *Cache) AbortFill(fillID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.fills[fillID]; ok {
		delete(c.fills, fillID)
		c.fillAborts++
	}
}

// BeginWrite opens a write window over [lba, lba+blocks): the range is
// invalidated immediately and every overlapping open fill is cancelled.
// Call before issuing the backend write; close with EndWrite when it
// completes.
func (c *Cache) BeginWrite(lba, blocks uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	w := &window{lba: lba, blocks: blocks}
	for _, ow := range c.writes {
		if ow.overlaps(lba, blocks) {
			// Overlapping write windows: neither side may install at close,
			// because the backend's final contents are decided by a commit
			// order the cache cannot observe — even if one window has
			// closed by the time the other does.
			ow.conflicted = true
			w.conflicted = true
		}
	}
	c.writes[c.nextID] = w
	for _, f := range c.fills {
		if f.overlaps(lba, blocks) {
			f.cancelled = true
		}
	}
	c.invalidateLocked(lba, blocks)
	return c.nextID
}

// EndWrite closes a write window. Pass the written payload when the
// backend write succeeded (nil on failure): under write-through it is
// installed, unless another writer — a write window or an external
// Invalidate — overlapped any part of this window's lifetime. Fills that
// overlapped the write's lifetime are cancelled.
func (c *Cache) EndWrite(writeID uint64, data []byte) {
	c.mu.Lock()
	w, ok := c.writes[writeID]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.writes, writeID)
	for _, f := range c.fills {
		if f.overlaps(w.lba, w.blocks) {
			f.cancelled = true
		}
	}
	var evicted []uint64
	if data != nil && c.cfg.WritePolicy == WriteThrough {
		if w.conflicted {
			// Another writer overlapped this window's lifetime (even one
			// that already closed): the final backend contents are decided
			// by a commit order we cannot observe, so leave the range
			// invalid rather than guess.
			c.writeSkips++
		} else {
			evicted = c.installLocked(w.lba, w.blocks, data)
			c.installs++
		}
	}
	c.mu.Unlock()
	c.notifyEvicted(evicted)
}

// Invalidate drops [lba, lba+blocks) and cancels overlapping fills —
// the hook for external writers (e.g. a kernel-path leg) that bypass the
// write-window protocol. Open write windows over the range are marked
// conflicted: the external writer raced them, so they must not install.
func (c *Cache) Invalidate(lba, blocks uint64) {
	c.mu.Lock()
	for _, f := range c.fills {
		if f.overlaps(lba, blocks) {
			f.cancelled = true
		}
	}
	for _, w := range c.writes {
		if w.overlaps(lba, blocks) {
			w.conflicted = true
		}
	}
	c.invalidateLocked(lba, blocks)
	c.mu.Unlock()
}

// invalidateLocked removes residents in the range. Caller holds c.mu.
func (c *Cache) invalidateLocked(lba, blocks uint64) {
	for b := uint64(0); b < blocks; b++ {
		key := lba + b
		sh := c.shardOf(key)
		sh.mu.Lock()
		if _, ok := sh.data[key]; ok {
			delete(sh.data, key)
			sh.invalidations++
		}
		// Drop ghosts too: an invalidated block's history is stale.
		sh.pol.Remove(key)
		sh.mu.Unlock()
	}
}

// installLocked admits the range's blocks, returning every evicted LBA.
// Caller holds c.mu; shard locks are taken per block.
func (c *Cache) installLocked(lba, blocks uint64, data []byte) []uint64 {
	bs := int(c.cfg.BlockSize)
	var evicted []uint64
	for b := uint64(0); b < blocks; b++ {
		key := lba + b
		src := data[int(b)*bs : (int(b)+1)*bs]
		sh := c.shardOf(key)
		sh.mu.Lock()
		if e, ok := sh.data[key]; ok {
			copy(e.data, src)
			e.lastOp = sh.ops
			sh.pol.Hit(key)
			sh.mu.Unlock()
			continue
		}
		e := &entry{data: make([]byte, bs), lastOp: sh.ops}
		copy(e.data, src)
		sh.data[key] = e
		sh.admissions++
		for _, k := range sh.pol.Admit(key) {
			delete(sh.data, k)
			sh.evictions++
			evicted = append(evicted, k)
		}
		sh.mu.Unlock()
	}
	return evicted
}

func (c *Cache) notifyEvicted(keys []uint64) {
	if c.cfg.OnEvict == nil {
		return
	}
	for _, k := range keys {
		c.cfg.OnEvict(k)
	}
}

// Resident returns the resident block count.
func (c *Cache) Resident() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// Hits returns total block hits.
func (c *Cache) Hits() uint64 { return c.sum(func(s *shard) uint64 { return s.hits }) }

// Misses returns total block misses.
func (c *Cache) Misses() uint64 { return c.sum(func(s *shard) uint64 { return s.misses }) }

// HitRatio returns hits / (hits + misses), or 0 when no reads happened.
func (c *Cache) HitRatio() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func (c *Cache) sum(f func(*shard) uint64) uint64 {
	var n uint64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += f(sh)
		sh.mu.Unlock()
	}
	return n
}

// ReuseHistogram merges the per-shard reuse-distance histograms (accesses
// between uses of the same block, in block probes) into one.
func (c *Cache) ReuseHistogram() *metrics.Histogram {
	out := metrics.NewHistogram()
	for _, sh := range c.shards {
		sh.mu.Lock()
		out.Merge(sh.reuse)
		sh.mu.Unlock()
	}
	return out
}

// Collect folds the cache's counters into cs under the "cache." prefix, in
// a deterministic order.
func (c *Cache) Collect(cs *metrics.CounterSet) {
	cs.Add("cache.hits", c.Hits())
	cs.Add("cache.misses", c.Misses())
	cs.Add("cache.admissions", c.sum(func(s *shard) uint64 { return s.admissions }))
	cs.Add("cache.evictions", c.sum(func(s *shard) uint64 { return s.evictions }))
	cs.Add("cache.invalidations", c.sum(func(s *shard) uint64 { return s.invalidations }))
	cs.Add("cache.ghost_hits", c.sum(func(s *shard) uint64 { return s.pol.GhostHits() }))
	c.mu.Lock()
	cs.Add("cache.conflicts", c.conflicts)
	cs.Add("cache.fill_aborts", c.fillAborts)
	cs.Add("cache.installs", c.installs)
	cs.Add("cache.write_skips", c.writeSkips)
	c.mu.Unlock()
	cs.Add("cache.resident", uint64(c.Resident()))
}

// String summarizes the cache state.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%s resident=%d hits=%d misses=%d ratio=%.2f}",
		c.cfg.WritePolicy, c.Resident(), c.Hits(), c.Misses(), c.HitRatio())
}
