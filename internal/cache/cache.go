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
	"bytes"
	"fmt"
	"sync"

	"nvmetro/internal/metrics"
)

// WritePolicy selects what a completed guest write leaves in the cache.
type WritePolicy int

const (
	// writeThrough installs the write's payload when the backend write
	// completes, so re-reads of freshly written data hit.
	writeThrough WritePolicy = iota
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
	// CapacityBlocks is the total resident capacity across all shards, with
	// a floor of eight (one line per shard): shard i holds
	// CapacityBlocks/8 lines, plus one if i < CapacityBlocks%8.
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
		WritePolicy:    writeThrough,
	}
}

// shardBits is log2 of the shard count: eight ARC-managed lock domains.
const (
	shardBits = 3
	nShards   = 1 << shardBits
)

// shard is one lock domain of the cache: a block store under ARC.
type shard struct {
	mu sync.Mutex
	arc

	hits, misses, admissions, evictions, invalidations uint64
}

// window is one in-flight fill or write over [lba, lba+blocks).
type window struct {
	id, lba, blocks uint64
	cancelled       bool // fills: a write overlapped the lifetime; drop at commit
	conflicted      bool // writes: another writer overlapped the lifetime; skip install
}

func (w *window) overlaps(lba, blocks uint64) bool {
	return lba < w.lba+w.blocks && w.lba < lba+blocks
}

// Cache is the sharded block cache. All methods are safe for concurrent
// use.
type Cache struct {
	cfg    Config
	shards [nShards]*shard
	zero   []byte // the one line every all-zero copy-install adopts: never written

	mu     sync.Mutex // guards the window tables; outer to shard locks
	fills  []window   // a handful are open at a time: scanned, not indexed
	writes []window
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
	c := &Cache{cfg: cfg, zero: make([]byte, cfg.BlockSize)}
	for i := range c.shards {
		lines := cfg.CapacityBlocks / nShards
		if uint64(i) < cfg.CapacityBlocks%nShards {
			lines++
		}
		c.shards[i] = &shard{arc: newARC(int(lines))}
	}
	return c
}

// shardOf maps a block LBA to its shard by multiplicative hashing, so
// consecutive blocks spread across lock domains.
func (c *Cache) shardOf(lba uint64) *shard {
	return c.shards[shardIndex(lba)]
}

func shardIndex(lba uint64) int {
	return int((lba * 0x9E3779B97F4A7C15) >> (64 - shardBits))
}

// lockRange locks every shard covering [lba, lba+blocks) in index order
// (deadlock-free) and returns the locked shards as a bitmask.
func (c *Cache) lockRange(lba, blocks uint64) uint {
	var mask uint
	for b := uint64(0); b < blocks; b++ {
		mask |= 1 << shardIndex(lba+b)
	}
	for i, sh := range c.shards {
		if mask&(1<<i) != 0 {
			sh.mu.Lock()
		}
	}
	return mask
}

func (c *Cache) unlock(mask uint) {
	for i := nShards - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			c.shards[i].mu.Unlock()
		}
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
	defer c.unlock(c.lockRange(lba, blocks))

	// Probe pass: every block must be resident. The copy pass reuses the
	// nodes it found.
	var stash [32]int32
	nodes := stash[:0]
	if blocks > uint64(len(stash)) {
		nodes = make([]int32, 0, blocks)
	}
	for b := uint64(0); b < blocks; b++ {
		n, ok := c.shardOf(lba + b).lookup(lba + b)
		if !ok {
			for b := uint64(0); b < blocks; b++ {
				c.shardOf(lba+b).misses++
			}
			return false
		}
		nodes = append(nodes, n)
	}
	for b, n := range nodes {
		sh := c.shardOf(lba + uint64(b))
		copy(buf[b*bs:(b+1)*bs], sh.nodes[n].line)
		sh.hit(n)
	}
	return true
}

// hit books one served read of resident node n: the hit and the
// replacement policy's touch. Caller holds sh.mu.
func (sh *shard) hit(n int32) {
	sh.hits++
	sh.touch(n)
}

// View is Read for one block without the copy: it returns the resident
// block itself, or nil on a miss, with the access counted exactly as Read
// counts it (hit or miss, replacement-policy touch). The bytes are
// read-only; they are what the block holds until something installs over,
// invalidates or evicts it, so a caller whose blocks can change reads them
// before it lets anything else at the cache. A line AdoptFill installed is
// its owner's immutable bytes and is never recycled, so that owner may hold
// it as long as it likes.
func (c *Cache) View(lba uint64) []byte {
	sh := c.shardOf(lba)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.lookup(lba)
	if !ok {
		sh.misses++
		return nil
	}
	sh.hit(n)
	return sh.nodes[n].line
}

// Contains reports whether every block of [lba, lba+blocks) is resident,
// without touching access stats or replacement state.
func (c *Cache) Contains(lba uint64, blocks uint64) bool {
	for b := uint64(0); b < blocks; b++ {
		sh := c.shardOf(lba + b)
		sh.mu.Lock()
		_, ok := sh.lookup(lba + b)
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// BeginFill opens a fill window over [lba, lba+blocks) and returns its
// handle. Call before issuing the backend read; a write window already
// open over the range cancels the fill at birth.
func (c *Cache) BeginFill(lba, blocks uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	c.fills = append(c.fills, window{id: c.nextID, lba: lba, blocks: blocks, cancelled: c.writeOpen(lba, blocks)})
	return c.nextID
}

// take removes the window with handle id from *ws and returns it.
func take(ws *[]window, id uint64) (window, bool) {
	s := *ws
	for i := range s {
		if s[i].id == id {
			w, last := s[i], len(s)-1
			s[i] = s[last]
			*ws = s[:last]
			return w, true
		}
	}
	return window{}, false
}

// writeOpen reports whether a write window overlaps the range. Caller holds
// c.mu.
func (c *Cache) writeOpen(lba, blocks uint64) bool {
	for i := range c.writes {
		if c.writes[i].overlaps(lba, blocks) {
			return true
		}
	}
	return false
}

// conflictWrites marks every write window overlapping the range conflicted,
// reporting whether there was one. Caller holds c.mu.
func (c *Cache) conflictWrites(lba, blocks uint64) bool {
	found := false
	for i := range c.writes {
		if c.writes[i].overlaps(lba, blocks) {
			c.writes[i].conflicted = true
			found = true
		}
	}
	return found
}

// cancelFills cancels every fill window overlapping the range. Caller holds
// c.mu.
func (c *Cache) cancelFills(lba, blocks uint64) {
	for i := range c.fills {
		if c.fills[i].overlaps(lba, blocks) {
			c.fills[i].cancelled = true
		}
	}
}

// CommitFill installs data for the fill window unless a write overlapped
// its lifetime, reporting whether the install happened. data must hold the
// window's blocks*BlockSize bytes read from the backend.
func (c *Cache) CommitFill(fillID uint64, data []byte) bool {
	return c.commitFill(fillID, data, false)
}

// AdoptFill is CommitFill without the copy: data itself becomes the lines,
// lent, so the cache never poisons, recycles or writes over them. The
// caller keeps data unchanged for as long as the cache may hold it —
// immutable, content-addressed bytes.
func (c *Cache) AdoptFill(fillID uint64, data []byte) bool {
	return c.commitFill(fillID, data, true)
}

func (c *Cache) commitFill(fillID uint64, data []byte, adopt bool) bool {
	c.mu.Lock()
	w, ok := take(&c.fills, fillID)
	if !ok {
		c.mu.Unlock()
		return false
	}
	if w.cancelled || c.writeOpen(w.lba, w.blocks) {
		c.conflicts++
		c.mu.Unlock()
		return false
	}
	var ev [16]uint64
	evicted := c.installLocked(w.lba, w.blocks, data, ev[:0], adopt)
	c.mu.Unlock()
	c.notifyEvicted(evicted)
	return true
}

// AbortFill drops a fill window whose backend read failed.
func (c *Cache) AbortFill(fillID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := take(&c.fills, fillID); ok {
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
	// Overlapping write windows: neither side may install at close, because
	// the backend's final contents are decided by a commit order the cache
	// cannot observe — even if one window has closed by the time the other
	// does.
	conflicted := c.conflictWrites(lba, blocks)
	c.writes = append(c.writes, window{id: c.nextID, lba: lba, blocks: blocks, conflicted: conflicted})
	c.cancelFills(lba, blocks)
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
	w, ok := take(&c.writes, writeID)
	if !ok {
		c.mu.Unlock()
		return
	}
	c.cancelFills(w.lba, w.blocks)
	var ev [16]uint64
	evicted := ev[:0]
	if data != nil && c.cfg.WritePolicy == writeThrough {
		if w.conflicted {
			// Another writer overlapped this window's lifetime (even one
			// that already closed): the final backend contents are decided
			// by a commit order we cannot observe, so leave the range
			// invalid rather than guess.
			c.writeSkips++
		} else {
			evicted = c.installLocked(w.lba, w.blocks, data, evicted, false)
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
	c.cancelFills(lba, blocks)
	c.conflictWrites(lba, blocks)
	c.invalidateLocked(lba, blocks)
	c.mu.Unlock()
}

// invalidateLocked removes residents in the range, and their ghosts: an
// invalidated block's history is stale. Caller holds c.mu.
func (c *Cache) invalidateLocked(lba, blocks uint64) {
	for b := uint64(0); b < blocks; b++ {
		sh := c.shardOf(lba + b)
		sh.mu.Lock()
		if sh.remove(lba + b) {
			sh.invalidations++
		}
		sh.mu.Unlock()
	}
}

// installLocked admits the range's blocks, appending every evicted LBA to
// ev, and copies data into their lines, or with adopt makes data's blocks
// the lines. An all-zero block is not copied: its node adopts c.zero, so
// every zero block shares one line, and a later non-zero install takes a
// line of its own as over any lent one. Caller holds c.mu; shard locks are
// taken per block.
func (c *Cache) installLocked(lba, blocks uint64, data []byte, ev []uint64, adopt bool) []uint64 {
	bs := int(c.cfg.BlockSize)
	for b := uint64(0); b < blocks; b++ {
		key := lba + b
		sh := c.shardOf(key)
		sh.mu.Lock()
		n, ok := sh.lookup(key)
		if ok {
			sh.touch(n)
		} else {
			had := len(ev)
			n, ev = sh.admit(key, ev)
			sh.admissions++
			sh.evictions += uint64(len(ev) - had)
		}
		if blk := data[int(b)*bs : (int(b)+1)*bs]; adopt {
			sh.adopt(n, blk)
		} else if bytes.Equal(blk, c.zero) {
			sh.adopt(n, c.zero)
		} else {
			copy(sh.line(n, bs), blk)
		}
		sh.mu.Unlock()
	}
	return ev
}

func (c *Cache) notifyEvicted(keys []uint64) {
	if c.cfg.OnEvict == nil {
		return
	}
	for _, k := range keys {
		c.cfg.OnEvict(k)
	}
}

// resident returns the resident block count.
func (c *Cache) resident() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.resident()
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

// Collect folds the cache's counters into cs under the "cache." prefix, in
// a deterministic order.
func (c *Cache) Collect(cs *metrics.CounterSet) {
	cs.Add("cache.hits", c.Hits())
	cs.Add("cache.misses", c.Misses())
	cs.Add("cache.admissions", c.sum(func(s *shard) uint64 { return s.admissions }))
	cs.Add("cache.evictions", c.sum(func(s *shard) uint64 { return s.evictions }))
	cs.Add("cache.invalidations", c.sum(func(s *shard) uint64 { return s.invalidations }))
	cs.Add("cache.ghost_hits", c.sum(func(s *shard) uint64 { return s.ghostHits }))
	c.mu.Lock()
	cs.Add("cache.conflicts", c.conflicts)
	cs.Add("cache.fill_aborts", c.fillAborts)
	cs.Add("cache.installs", c.installs)
	cs.Add("cache.write_skips", c.writeSkips)
	c.mu.Unlock()
	cs.Add("cache.resident", uint64(c.resident()))
}

// String summarizes the cache state.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%s resident=%d hits=%d misses=%d ratio=%.2f}",
		c.cfg.WritePolicy, c.resident(), c.Hits(), c.Misses(), c.HitRatio())
}
