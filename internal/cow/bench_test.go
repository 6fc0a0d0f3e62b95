package cow

import (
	"math/rand"
	"testing"
)

// benchGolden seals a golden image of the given size and returns it.
func benchGolden(blocks uint64, cacheChunks uint64) *Store {
	rng := rand.New(rand.NewSource(99))
	ix := NewIndex(Config{BlockSize: 512, CacheChunks: cacheChunks})
	g := NewStore(ix, blocks, nil)
	g.WriteBlocks(0, fill(rng, int(blocks)*512))
	g.Snapshot()
	return g
}

// BenchmarkCloneCreate measures deriving a writable clone from a sealed
// 32 MiB golden image — the boot-storm hot operation, O(layers) metadata.
func BenchmarkCloneCreate(b *testing.B) {
	g := benchGolden(65536, 0) // 32 MiB at 512 B blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		c.Close()
	}
}

// BenchmarkCowReadShared measures a chunk-aligned read served from the
// sealed layer chain through the shared content-addressed cache.
func BenchmarkCowReadShared(b *testing.B) {
	g := benchGolden(8192, 128)
	c := g.Clone()
	defer c.Close()
	buf := make([]byte, 64*512)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadBlocks(uint64(i%128)*64, buf)
	}
}

// BenchmarkCowWriteBreak measures the first write into a shared chunk: a
// read-modify-write CoW break. The clone is re-derived once per sweep of
// the image (amortized O(layers), negligible next to the breaks).
func BenchmarkCowWriteBreak(b *testing.B) {
	g := benchGolden(8192, 0)
	const chunks = 8192 / 64
	c := g.Clone()
	buf := make([]byte, 512)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunks == 0 && i > 0 {
			c.Close()
			c = g.Clone()
		}
		c.WriteBlocks(uint64(i%chunks)*64+1, buf) // sub-chunk: forces RMW
	}
	b.StopTimer()
	c.Close()
}

// BenchmarkCowReadPrivate measures a 4 KiB read out of chunks a boot write
// broke private one page at a time: one read in eight takes the written page,
// the rest the unwritten pages' sealed source.
func BenchmarkCowReadPrivate(b *testing.B) {
	g := benchGolden(8192, 128)
	const chunks = 8192 / 64
	c := g.Clone()
	defer c.Close()
	buf := make([]byte, 4096)
	for cn := uint64(0); cn < chunks; cn++ {
		c.WriteBlocks(cn*64+8*(cn%8), buf)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadBlocks(uint64(i%chunks)*64+8*uint64(i/chunks%8), buf)
	}
}
