package cache

import (
	"math/rand"
	"testing"
)

// BenchmarkCacheMix replays the op mix of uif_mix's cached third on the
// cache alone: 4 KiB (8-block) operations at zipf 1.2 offsets over a 16 MiB
// extent, 80 % reads and 20 % writes, on the default 16 MiB cache. A read
// hits, or misses and fills through a fill window; a write goes through a
// write window, which installs its payload (write-through). One op is one
// guest I/O. It prices the cache's host time without an end-to-end run's
// noise.
//
// The mix's hit ratio depends on run length: past about 600,000 ops some
// shards collapse (blocks a write invalidated come back as new keys, and
// ARC's replacement then drains a full shard's residents into its ghost
// lists), and hits fall from 0.99 to 0.02. So ops are timed in rounds that
// each replay the same sequence on a fresh cache: 100,000 untimed ops warm
// it, then up to 100,000 are timed. Any b.N prices the same stretch of the
// same workload.
func BenchmarkCacheMix(b *testing.B) {
	const (
		blocks = 8
		warm   = 100_000
		timed  = 100_000
	)
	var hits, misses uint64
	for done := 0; done < b.N; {
		b.StopTimer()
		c := New(DefaultConfig())
		buf := make([]byte, blocks*int(c.BlockSize()))
		r := rand.New(rand.NewSource(1))
		z := rand.NewZipf(r, 1.2, 1, (16<<20)/uint64(len(buf))-1)
		op := func() {
			lba := z.Uint64() * blocks
			if r.Intn(100) < 20 {
				c.EndWrite(c.BeginWrite(lba, blocks), buf)
			} else if !c.Read(lba, blocks, buf) {
				c.CommitFill(c.BeginFill(lba, blocks), buf)
			}
		}
		for range warm {
			op()
		}
		h, m := c.Hits(), c.Misses()
		n := min(timed, b.N-done)
		b.StartTimer()
		for range n {
			op()
		}
		done += n
		hits, misses = hits+c.Hits()-h, misses+c.Misses()-m
	}
	b.ReportAllocs()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit_ratio")
	}
}
