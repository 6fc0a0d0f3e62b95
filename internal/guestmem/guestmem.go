// Package guestmem models a VM's guest-physical memory: a page-granular
// address space that devices, the I/O router and userspace I/O functions
// access via DMA-style reads and writes. Pages are allocated lazily so large
// sparse address spaces stay cheap, and a simple bump allocator hands out
// DMA buffers and PRP list pages to the guest driver. A page is found through
// a dense index by page number, grown to the highest page written: the bump
// allocator hands out memory from the bottom, so the index stays short.
package guestmem

import (
	"errors"
	"fmt"
)

// PageSize is the guest page size (matches the NVMe PRP page size).
const PageSize = 4096

// errOutOfRange reports an access beyond the configured memory size.
var errOutOfRange = errors.New("guestmem: access out of range")

// errOutOfMemory reports allocator exhaustion.
var errOutOfMemory = errors.New("guestmem: out of memory")

// Memory is a sparse guest-physical address space.
type Memory struct {
	size  uint64
	pages []*[PageSize]byte // by page number, up to the highest page written; nil: never written
	next  uint64            // bump allocator cursor (page-aligned)
}

// New creates a guest memory of the given size in bytes (rounded up to a
// page). Allocation starts above the first page to keep address 0 invalid.
func New(size uint64) *Memory {
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	return &Memory{size: size, next: PageSize}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// inRange reports whether [addr, addr+n) lies inside the memory. The guest
// owns addr: addr+n may wrap, size-addr cannot.
func (m *Memory) inRange(addr uint64, n int) bool {
	return addr <= m.size && uint64(n) <= m.size-addr
}

// ReadAt copies len(p) bytes from guest physical address addr.
// Reads of never-written pages return zeros.
func (m *Memory) ReadAt(p []byte, addr uint64) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("%w: read [%#x,+%d)", errOutOfRange, addr, len(p))
	}
	for len(p) > 0 {
		pn, off := addr/PageSize, addr%PageSize
		n := copyLen(p, off)
		if pn < uint64(len(m.pages)) && m.pages[pn] != nil {
			copy(p[:n], m.pages[pn][off:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += n
	}
	return nil
}

// WriteAt copies p into guest physical memory at addr.
func (m *Memory) WriteAt(p []byte, addr uint64) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("%w: write [%#x,+%d)", errOutOfRange, addr, len(p))
	}
	for len(p) > 0 {
		pn, off := addr/PageSize, addr%PageSize
		n := copyLen(p, off)
		if pn >= uint64(len(m.pages)) {
			m.pages = append(m.pages, make([]*[PageSize]byte, pn+1-uint64(len(m.pages)))...)
		}
		pg := m.pages[pn]
		if pg == nil {
			pg = new([PageSize]byte)
			m.pages[pn] = pg
		}
		copy(pg[off:], p[:n])
		p = p[n:]
		addr += n
	}
	return nil
}

// copyLen is how many bytes of p the page holding offset off takes.
func copyLen(p []byte, off uint64) uint64 {
	return min(PageSize-off, uint64(len(p)))
}

// allocPages allocates n contiguous pages and returns the base address.
func (m *Memory) allocPages(n int) (uint64, error) {
	need := uint64(n) * PageSize
	if m.next+need > m.size {
		return 0, errOutOfMemory
	}
	base := m.next
	m.next += need
	return base, nil
}

// MustAllocPages is AllocPages that panics on exhaustion (guest driver
// setup paths where failure is a programming error).
func (m *Memory) MustAllocPages(n int) uint64 {
	a, err := m.allocPages(n)
	if err != nil {
		panic(err)
	}
	return a
}

// AllocBuffer allocates a page-aligned buffer of at least size bytes and
// returns its base address and the list of page addresses covering it.
func (m *Memory) AllocBuffer(size uint32) (base uint64, pages []uint64, err error) {
	n := int((size + PageSize - 1) / PageSize)
	if n == 0 {
		n = 1
	}
	base, err = m.allocPages(n)
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		pages = append(pages, base+uint64(i)*PageSize)
	}
	return base, pages, nil
}

// Allocated reports how many bytes the bump allocator has handed out.
func (m *Memory) Allocated() uint64 { return m.next - PageSize }
