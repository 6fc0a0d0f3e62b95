// Package device simulates a physical NVMe SSD: hardware queue pairs fed by
// doorbells, a service-time model calibrated to a modern TLC drive with an
// SLC write cache (the paper's Samsung 970 EVO Plus), namespaces, partitions
// and pluggable backing stores. Data movement is real — reads return what
// was written — while service time is virtual.
package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
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

// chunkBlocks is ContentCRC's framing granule (64 blocks = 32 KiB at
// 512-byte LBAs): the fingerprint hashes the logical contents chunk by
// chunk, whatever pages happen to be resident.
const chunkBlocks = 64

// pageBytes is MemStore's allocation granule, rounded up to whole blocks.
const pageBytes = 4096

// zeroPage is what an absent page holds; isZero compares against it.
var zeroPage [pageBytes]byte

// isZero reports whether b is all zero bytes. bytes.Equal is the runtime's
// vectorised memequal, so a non-zero page leaves at its first non-zero word.
func isZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), pageBytes)
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// MemStore keeps full data contents in sparse pages of max(4 KiB, one
// block): a page exists only once a write has put a non-zero byte into it,
// and a whole-page zero write or trim drops it, as a thin-provisioned disk
// keeps no all-zero block. Reads of absent pages return zeros. Resident
// pages are interned in one Pages set, so pages holding the same bytes are
// stored once, and found through a two-level page table: a directory of
// leaves of leafPages pages, the last leaf used kept at hand. Used by
// correctness tests and the KV-store workloads.
type MemStore struct {
	blockSize  uint32
	pageBlocks uint64 // blocks per page
	pageLen    int    // bytes per page
	set        *Pages
	dir        map[uint64]*leaf // by page number / leafPages
	lastID     uint64
	last       *leaf // dir[lastID], or nil
}

// leafPages is the number of pages one page-table leaf maps.
const leafPages = 512

// leaf is one page-table leaf: its resident pages and how many there are.
// A leaf that holds none is dropped.
type leaf struct {
	pages [leafPages]*Page
	n     int
}

// NewMemStore creates a memory-backed store with the given block size.
func NewMemStore(blockSize uint32) *MemStore {
	pb := max(1, pageBytes/blockSize)
	return &MemStore{
		blockSize:  blockSize,
		pageBlocks: uint64(pb),
		pageLen:    int(pb * blockSize),
		set:        NewPages(int(pb * blockSize)),
		dir:        make(map[uint64]*leaf),
	}
}

// span locates lba: its page number, its byte offset in the page, and how
// many of want bytes fit in the page from there.
func (s *MemStore) span(lba uint64, want int) (pn uint64, off, n int) {
	pn = lba / s.pageBlocks
	off = int(lba%s.pageBlocks) * int(s.blockSize)
	return pn, off, min(want, s.pageLen-off)
}

// leafOf returns the leaf that maps page pn, making it when grow is set;
// nil when there is none.
func (s *MemStore) leafOf(pn uint64, grow bool) *leaf {
	id := pn / leafPages
	if s.last != nil && s.lastID == id {
		return s.last
	}
	l := s.dir[id]
	if l == nil {
		if !grow {
			return nil
		}
		l = new(leaf)
		s.dir[id] = l
	}
	s.last, s.lastID = l, id
	return l
}

// page returns the leaf that maps page pn and the page, each nil when
// absent.
func (s *MemStore) page(pn uint64) (*leaf, *Page) {
	l := s.leafOf(pn, false)
	if l == nil {
		return nil, nil
	}
	return l, l.pages[pn%leafPages]
}

// drop releases page pn of l, dropping l once it maps no page.
func (s *MemStore) drop(l *leaf, pn uint64) {
	i := pn % leafPages
	s.set.Release(l.pages[i])
	l.pages[i] = nil
	if l.n--; l.n == 0 {
		delete(s.dir, pn/leafPages)
		s.last = nil
	}
}

// ReadBlocks implements Store.
func (s *MemStore) ReadBlocks(lba uint64, buf []byte) {
	for len(buf) > 0 {
		pn, off, n := s.span(lba, len(buf))
		if _, p := s.page(pn); p != nil {
			copy(buf[:n], p.data[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		lba += uint64(n) / uint64(s.blockSize)
	}
}

// WriteBlocks implements Store. An all-zero write allocates no page, and
// one covering a whole resident page drops it; a partial write into a
// resident page rewrites it, zeros or not.
func (s *MemStore) WriteBlocks(lba uint64, buf []byte) {
	for len(buf) > 0 {
		pn, off, n := s.span(lba, len(buf))
		seg := buf[:n]
		switch l, p := s.page(pn); {
		case p == nil && isZero(seg):
			// Already what an absent page reads as.
		case p == nil:
			l = s.leafOf(pn, true)
			l.pages[pn%leafPages] = s.set.Write(nil, nil, off, n, seg)
			l.n++
		case n == s.pageLen && isZero(seg):
			s.drop(l, pn)
		default:
			l.pages[pn%leafPages] = s.set.Write(p, nil, off, n, seg)
		}
		buf = buf[n:]
		lba += uint64(n) / uint64(s.blockSize)
	}
}

// TrimBlocks implements Store. Whole covered pages are dropped; partial
// pages are zeroed.
func (s *MemStore) TrimBlocks(lba uint64, blocks uint32) {
	bs := uint64(s.blockSize)
	for left := uint64(blocks) * bs; left > 0; {
		pn, off, n := s.span(lba, int(min(left, uint64(s.pageLen))))
		if l, p := s.page(pn); p != nil {
			if n == s.pageLen {
				s.drop(l, pn)
			} else {
				l.pages[pn%leafPages] = s.set.Write(p, nil, off, n, nil)
			}
		}
		left -= uint64(n)
		lba += uint64(n) / bs
	}
}

// ContentCRC fingerprints the store's logical contents: 64-block chunks
// are hashed in LBA order and all-zero chunks are skipped, so two stores
// holding the same bytes produce the same CRC even if one materialized a
// page the other never touched. Mirror-consistency tests compare primary
// and secondary with it.
func (s *MemStore) ContentCRC() uint32 {
	var ids []uint64
	for _, id := range slices.Sorted(maps.Keys(s.dir)) {
		for i, p := range s.dir[id].pages {
			if p == nil {
				continue
			}
			first := (id*leafPages + uint64(i)) * s.pageBlocks
			ids = append(ids, first/chunkBlocks, (first+s.pageBlocks-1)/chunkBlocks)
		}
	}
	ids = slices.Compact(ids)
	var idbuf [8]byte
	c := make([]byte, chunkBlocks*int(s.blockSize))
	crc := crc32.NewIEEE()
	for _, cn := range ids {
		s.ReadBlocks(cn*chunkBlocks, c)
		if isZero(c) {
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
	backingNull
)

// NewStore builds a store of the given mode.
func NewStore(mode BackingMode, blockSize uint32) Store {
	switch mode {
	case BackingMem:
		return NewMemStore(blockSize)
	case backingNull:
		return NullStore{}
	}
	panic(fmt.Sprintf("device: unknown backing mode %d", mode))
}
