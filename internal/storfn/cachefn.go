package storfn

import (
	"fmt"

	"nvmetro/internal/cache"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
)

// cacheSrc is the host-cache classifier: every read bumps its LBA bucket's
// access count in the heat map, and once a bucket crosses the hot threshold
// its reads are steered to the notify path where the cache UIF serves hits
// from host memory and fills on miss. Cold reads stay on the fast path —
// the device is already the cheapest way to serve data nobody re-reads.
// Writes always go to the UIF so they pass through the cache's invalidation
// window; without that, a fast-path write could race an in-flight fill and
// leave stale data resident.
const cacheSrc = `
; cache classifier: hot reads and all writes to the cache UIF
` + mediateSrc + `
	jeq   r3, 1, to_uif     ; writes: invalidation window lives in the UIF
	jne   r3, 2, passthru   ; admin etc.: fast path
; --- read: heat accounting on the translated LBA ---
	mov   r2, 0
	stxw  [r10-4], r2
	ldmap r1, cache
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, internal
	ldxdw r5, [r0+0]        ; bucket shift
	ldxdw r6, [r0+8]        ; hot threshold (r6 survives helper calls)
	ldxdw r4, [r9+72]       ; translated slba (r4 was clobbered by the call)
	rsh   r4, r5            ; bucket number
	stxdw [r10-16], r4      ; heat key
	ldmap r1, heat
	mov   r2, r10
	add   r2, -16
	call  map_lookup_elem
	jeq   r0, 0, cold_first
	ldxdw r3, [r0+0]
	add   r3, 1
	stxdw [r0+0], r3        ; bump the bucket in place
	jlt   r3, r6, passthru  ; still cold
to_uif:
	mov   r0, 0x820000      ; SEND_NQ | WILL_COMPLETE_NQ
	exit
cold_first:
	mov   r3, 1
	stxdw [r10-24], r3
	ldmap r1, heat
	mov   r2, r10
	add   r2, -16
	mov   r3, r10
	add   r3, -24
	mov   r4, 0
	call  map_update_elem   ; full map: bucket stays untracked (cold)
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
` + exitSrc

// CacheParams configures the cache storage function.
type CacheParams struct {
	// CopyRate models guest-memory copies on the UIF (bytes/sec).
	CopyRate float64
	// HotThreshold is the bucket access count at which reads divert to the
	// cache UIF; the first HotThreshold-1 reads of a bucket stay fast-path.
	HotThreshold uint64
	// MaxBuckets bounds the classifier heat map.
	MaxBuckets int
	// BucketShift is log2 blocks per heat bucket.
	BucketShift uint8
	// Cache sizes the host cache itself; BlockSize is overridden with the
	// device block size at attach time.
	Cache cache.Config
}

// DefaultCacheParams returns the calibrated cache function: 8-block heat
// buckets going hot on the second access, and a 16 MiB ARC write-through
// cache.
func DefaultCacheParams() CacheParams {
	return CacheParams{
		CopyRate:     10e9,
		HotThreshold: 2,
		MaxBuckets:   1 << 16,
		BucketShift:  3,
		Cache:        cache.DefaultConfig(),
	}
}

// Validate rejects parameters the cache function cannot run with.
func (p CacheParams) Validate() error {
	if p.CopyRate <= 0 {
		return fmt.Errorf("storfn: cache CopyRate must be positive, got %g", p.CopyRate)
	}
	if p.MaxBuckets <= 0 {
		return fmt.Errorf("storfn: cache MaxBuckets must be positive, got %d", p.MaxBuckets)
	}
	if p.BucketShift >= 64 {
		return fmt.Errorf("storfn: cache BucketShift must be below 64, got %d", p.BucketShift)
	}
	return nil
}

// CacheClassifier returns the host-cache classifier for the partition with
// its heat map taken from hints. The partition config map is returned for
// live updates, as with the other classifiers.
func CacheClassifier(part device.Partition, hints *core.HotHints, hotThreshold uint64) (*ebpf.Program, *ebpf.ArrayMap) {
	cfg := core.NewPartitionConfigMap(part)
	ccfg := ebpf.NewArrayMap(16, 1)
	ccfg.SetU64(0, 0, uint64(hints.BucketShift()))
	ccfg.SetU64(0, 8, hotThreshold)
	prog := ebpf.MustAssemble(cacheSrc, "cache",
		map[string]ebpf.Map{"cfg": cfg, "cache": ccfg, "heat": hints.Map()}, nil)
	return prog, cfg
}

// Cacher is the host-cache UIF: hot reads hit host memory and complete
// without touching the device; misses open a fill window, read the backend
// through io_uring and install the data; writes open a write window around
// the backend write so an in-flight fill can never resurrect stale data.
type Cacher struct {
	env   *sim.Env
	cache *cache.Cache
	hints *core.HotHints

	// CopyRate models guest-memory copies (bytes/sec).
	CopyRate float64

	// Guard, when set, verifies protection info at the cache's two trust
	// boundaries: a hit is never served from a cached copy that fails
	// verification (it is invalidated and refilled), and a fill is never
	// committed from backing data that fails verification.
	Guard BlockVerifier

	// Per-path UIF service latency (request arrival at the UIF to guest
	// completion, ns): hits, miss fills and writes.
	HitLat, FillLat, WriteLat *metrics.Histogram

	// Stats (request granularity; the cache's own counters are per block).
	ReqHits, ReqFills, ReqWrites, FillErrors uint64
	GuardErrors                              uint64 // failed verifications at either boundary
}

// NewCacher builds the UIF around a cache sized by p. Evictions feed back
// into the classifier heat map: once nothing from a heat bucket is resident
// anymore, the bucket is forgotten so the cooled region's reads re-qualify
// for the fast path instead of missing through the UIF forever.
func NewCacher(env *sim.Env, p CacheParams) *Cacher {
	c := &Cacher{
		env:      env,
		hints:    core.NewHotHints(p.BucketShift, p.MaxBuckets),
		CopyRate: p.CopyRate,
		HitLat:   metrics.NewHistogram(),
		FillLat:  metrics.NewHistogram(),
		WriteLat: metrics.NewHistogram(),
	}
	p.Cache.OnEvict = c.forgetEvicted
	c.cache = cache.New(p.Cache)
	return c
}

// forgetEvicted drops an evicted block's heat bucket once no block of the
// bucket is resident, ending the bucket's notify-path diversion. Runs from
// the cache's OnEvict hook, outside all cache locks.
func (c *Cacher) forgetEvicted(lba uint64) {
	shift := c.hints.BucketShift()
	base := c.hints.Bucket(lba) << shift
	for b := uint64(0); b < uint64(1)<<shift; b++ {
		if c.cache.Contains(base+b, 1) {
			return
		}
	}
	c.hints.Forget(lba)
}

// Cache exposes the underlying host cache (stats, invalidation hooks).
func (c *Cacher) Cache() *cache.Cache { return c.cache }

// Hints exposes the classifier heat map wrapper.
func (c *Cacher) Hints() *core.HotHints { return c.hints }

func (c *Cacher) copyCost(n int) sim.Duration {
	return sim.Duration(float64(n) / c.CopyRate * 1e9)
}

// Work implements uif.Handler.
func (c *Cacher) Work(p *sim.Proc, th *sim.Thread, req *uif.Request) (bool, nvme.Status) {
	lba, blocks := req.Cmd.SLBA(), uint64(req.Cmd.Blocks())
	n := int(req.NBytes())
	start := c.env.Now()
	switch req.Cmd.Opcode() {
	case nvme.OpRead:
		buf := req.Buffer(n)
		if c.cache.Read(lba, blocks, buf) {
			if c.Guard == nil || c.Guard.Verify(lba, buf) {
				th.Exec(p, c.copyCost(n))
				if err := req.WriteData(buf); err != nil {
					return false, nvme.SCDataXferError
				}
				c.ReqHits++
				c.HitLat.Record(int64(c.env.Now() - start))
				return false, nvme.SCSuccess
			}
			// The cached copy fails verification: drop it and refill
			// from the backing store instead of serving it.
			c.GuardErrors++
			c.cache.Invalidate(lba, blocks)
		}
		fill := c.cache.BeginFill(lba, blocks)
		req.SubmitBackendReadThen(p, th, buf, func(p *sim.Proc, th *sim.Thread, st nvme.Status) {
			if !st.OK() {
				c.cache.AbortFill(fill)
				c.FillErrors++
				req.CompleteAsync(st)
				return
			}
			if c.Guard != nil && !c.Guard.Verify(lba, buf) {
				c.GuardErrors++
				c.cache.AbortFill(fill)
				req.CompleteAsync(nvme.SCGuardCheck)
				return
			}
			th.Exec(p, c.copyCost(n))
			if err := req.WriteData(buf); err != nil {
				c.cache.AbortFill(fill)
				req.CompleteAsync(nvme.SCDataXferError)
				return
			}
			c.cache.CommitFill(fill, buf)
			c.ReqFills++
			c.FillLat.Record(int64(c.env.Now() - start))
			req.CompleteAsync(nvme.SCSuccess)
		})
		return true, 0
	case nvme.OpWrite:
		buf := req.Buffer(n)
		if err := req.ReadData(buf); err != nil {
			return false, nvme.SCDataXferError
		}
		if c.Guard != nil && !c.Guard.Verify(lba, buf) {
			c.GuardErrors++
			return false, nvme.SCGuardCheck
		}
		th.Exec(p, c.copyCost(n))
		w := c.cache.BeginWrite(lba, blocks)
		req.SubmitBackendWriteThen(p, th, buf, func(p *sim.Proc, th *sim.Thread, st nvme.Status) {
			if st.OK() {
				c.cache.EndWrite(w, buf)
			} else {
				c.cache.EndWrite(w, nil)
			}
			c.ReqWrites++
			c.WriteLat.Record(int64(c.env.Now() - start))
			req.CompleteAsync(st)
		})
		return true, 0
	default:
		return false, nvme.SCInvalidOpcode
	}
}

// Collect folds the UIF's and the cache's counters into cs.
func (c *Cacher) Collect(cs *metrics.CounterSet) {
	cs.Add("cacher.req_hits", c.ReqHits)
	cs.Add("cacher.req_fills", c.ReqFills)
	cs.Add("cacher.req_writes", c.ReqWrites)
	cs.Add("cacher.fill_errors", c.FillErrors)
	c.cache.Collect(cs)
}

func init() {
	// Expose the source through the inventory used by Table I / the asm tool.
	classifierExtra["cache"] = cacheSrc
}
