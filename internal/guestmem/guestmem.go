// Package guestmem models a VM's guest-physical memory: a page-granular
// address space that devices, the I/O router and userspace I/O functions
// access via DMA-style reads and writes. Pages are allocated lazily so large
// sparse address spaces stay cheap, and a simple bump allocator hands out
// DMA buffers and PRP list pages to the guest driver.
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
	pages map[uint64][]byte // page number -> page data
	next  uint64            // bump allocator cursor (page-aligned)
}

// New creates a guest memory of the given size in bytes (rounded up to a
// page). Allocation starts above the first page to keep address 0 invalid.
func New(size uint64) *Memory {
	size = (size + PageSize - 1) &^ uint64(PageSize-1)
	return &Memory{size: size, pages: make(map[uint64][]byte), next: PageSize}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

func (m *Memory) page(pn uint64, create bool) []byte {
	p := m.pages[pn]
	if p == nil && create {
		p = make([]byte, PageSize)
		m.pages[pn] = p
	}
	return p
}

// ReadAt copies len(p) bytes from guest physical address addr.
// Reads of never-written pages return zeros.
func (m *Memory) ReadAt(p []byte, addr uint64) error {
	if addr+uint64(len(p)) > m.size {
		return fmt.Errorf("%w: read [%#x,+%d)", errOutOfRange, addr, len(p))
	}
	for len(p) > 0 {
		pn, off := addr/PageSize, addr%PageSize
		n := PageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		if pg := m.page(pn, false); pg != nil {
			copy(p[:n], pg[off:])
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
	if addr+uint64(len(p)) > m.size {
		return fmt.Errorf("%w: write [%#x,+%d)", errOutOfRange, addr, len(p))
	}
	for len(p) > 0 {
		pn, off := addr/PageSize, addr%PageSize
		n := PageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		copy(m.page(pn, true)[off:], p[:n])
		p = p[n:]
		addr += n
	}
	return nil
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
