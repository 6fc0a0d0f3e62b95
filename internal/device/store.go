// Package device simulates a physical NVMe SSD: hardware queue pairs fed by
// doorbells, a service-time model calibrated to a modern TLC drive with an
// SLC write cache (the paper's Samsung 970 EVO Plus), namespaces, partitions
// and pluggable backing stores. Data movement is real — reads return what
// was written — while service time is virtual.
package device

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Store is the persistence layer behind a namespace, addressed in logical
// blocks.
type Store interface {
	// ReadBlocks fills buf (a whole number of blocks) starting at lba.
	ReadBlocks(lba uint64, buf []byte)
	// WriteBlocks stores buf starting at lba.
	WriteBlocks(lba uint64, buf []byte)
	// TrimBlocks deallocates a block range.
	TrimBlocks(lba uint64, blocks uint32)
}

// chunkBlocks is the allocation granule of MemStore (64 blocks = 32 KiB at
// 512-byte LBAs), balancing map overhead against sparse-write waste.
const chunkBlocks = 64

// MemStore keeps full data contents in sparse chunks; reads of never-written
// blocks return zeros. Used by correctness tests and the KV-store workloads.
type MemStore struct {
	blockSize uint32
	chunks    map[uint64][]byte
}

// NewMemStore creates a memory-backed store with the given block size.
func NewMemStore(blockSize uint32) *MemStore {
	return &MemStore{blockSize: blockSize, chunks: make(map[uint64][]byte)}
}

func (s *MemStore) chunk(lba uint64, create bool) ([]byte, uint64) {
	cn, off := lba/chunkBlocks, lba%chunkBlocks
	c := s.chunks[cn]
	if c == nil && create {
		c = make([]byte, chunkBlocks*int(s.blockSize))
		s.chunks[cn] = c
	}
	return c, off * uint64(s.blockSize)
}

// ReadBlocks implements Store.
func (s *MemStore) ReadBlocks(lba uint64, buf []byte) {
	for len(buf) > 0 {
		c, off := s.chunk(lba, false)
		n := chunkBlocks*int(s.blockSize) - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		if c != nil {
			copy(buf[:n], c[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		lba += uint64(n) / uint64(s.blockSize)
	}
}

// WriteBlocks implements Store.
func (s *MemStore) WriteBlocks(lba uint64, buf []byte) {
	for len(buf) > 0 {
		c, off := s.chunk(lba, true)
		n := chunkBlocks*int(s.blockSize) - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		copy(c[off:], buf[:n])
		buf = buf[n:]
		lba += uint64(n) / uint64(s.blockSize)
	}
}

// TrimBlocks implements Store. Whole covered chunks are dropped; partial
// chunks are zeroed.
func (s *MemStore) TrimBlocks(lba uint64, blocks uint32) {
	end := lba + uint64(blocks)
	for lba < end {
		cn, off := lba/chunkBlocks, lba%chunkBlocks
		n := uint64(chunkBlocks) - off
		if lba+n > end {
			n = end - lba
		}
		if off == 0 && n == chunkBlocks {
			delete(s.chunks, cn)
		} else if c := s.chunks[cn]; c != nil {
			clear(c[off*uint64(s.blockSize) : (off+n)*uint64(s.blockSize)])
		}
		lba += n
	}
}

// Resident reports the number of materialized chunks (for memory tests).
func (s *MemStore) Resident() int { return len(s.chunks) }

// ContentCRC fingerprints the store's logical contents: chunks are hashed
// in LBA order and all-zero chunks are skipped, so two stores holding the
// same bytes produce the same CRC even if one materialized a chunk the
// other never touched. Mirror-consistency tests compare primary and
// secondary with it.
func (s *MemStore) ContentCRC() uint32 {
	ids := make([]uint64, 0, len(s.chunks))
	for cn := range s.chunks {
		ids = append(ids, cn)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var idbuf [8]byte
	crc := crc32.NewIEEE()
	for _, cn := range ids {
		c := s.chunks[cn]
		allZero := true
		for _, b := range c {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			continue
		}
		binary.LittleEndian.PutUint64(idbuf[:], cn)
		crc.Write(idbuf[:])
		crc.Write(c)
	}
	return crc.Sum32()
}

// NullStore discards writes and reads zeros: the cheapest backing for pure
// throughput benchmarks.
type NullStore struct{}

// ReadBlocks implements Store.
func (NullStore) ReadBlocks(lba uint64, buf []byte) { clear(buf) }

// WriteBlocks implements Store.
func (NullStore) WriteBlocks(lba uint64, buf []byte) {}

// TrimBlocks implements Store.
func (NullStore) TrimBlocks(lba uint64, blocks uint32) {}

// BackingMode selects a Store implementation.
type BackingMode int

// Backing modes.
const (
	BackingMem BackingMode = iota
	BackingNull
)

// NewStore builds a store of the given mode.
func NewStore(mode BackingMode, blockSize uint32) Store {
	switch mode {
	case BackingMem:
		return NewMemStore(blockSize)
	case BackingNull:
		return NullStore{}
	}
	panic(fmt.Sprintf("device: unknown backing mode %d", mode))
}
