package nvme

import (
	"errors"
	"fmt"
)

// Memory is the DMA view of a guest's physical memory. Implementations are
// provided by package guestmem; the device model, router and UIF framework
// all move data through this interface, mirroring how the real system reads
// scatter-gather data pages directly from VM memory without copies.
type Memory interface {
	// ReadAt copies len(p) bytes from guest physical address addr.
	ReadAt(p []byte, addr uint64) error
	// WriteAt copies len(p) bytes to guest physical address addr.
	WriteAt(p []byte, addr uint64) error
}

// Segment is one contiguous piece of a data buffer in guest memory.
type Segment struct {
	Addr uint64
	Len  uint32
}

// ErrBadPRP reports a malformed PRP chain.
var ErrBadPRP = errors.New("nvme: malformed PRP")

// maxPRPList bounds PRP list walks (1 MiB transfers at 4 KiB pages).
const maxPRPList = 512

// WalkPRP resolves a command's PRP1/PRP2 pair into guest memory segments
// covering nbytes, following the NVMe PRP rules:
//
//   - PRP1 points at the first page and may carry a page offset;
//   - if the transfer fits the first page, PRP2 is ignored;
//   - if it extends into exactly one more page, PRP2 points at it (offset 0);
//   - otherwise PRP2 points at a PRP list: packed little-endian 8-byte page
//     pointers in guest memory, whose last entry chains to a further list
//     when the transfer needs more entries than one list page holds.
//
// The segments are the caller's to keep; a caller that walks one command's
// PRPs at a time and drops them before the next uses AppendPRP instead.
func WalkPRP(mem Memory, prp1, prp2 uint64, nbytes uint32) ([]Segment, error) {
	return AppendPRP(nil, nil, mem, prp1, prp2, nbytes)
}

// AppendPRP is WalkPRP into caller-owned memory: it appends the segments to
// segs and reads PRP list entries through *entry (allocated on the first list
// read when nil), so a caller that keeps both from one command to the next —
// the router's guard staging, the device's command state — walks without
// allocating. On error it returns segs as passed. Callers whose segments
// outlive the next walk (the UIF framework's requests, the kernel adapter's
// bios) keep calling WalkPRP.
func AppendPRP(segs []Segment, entry *[8]byte, mem Memory, prp1, prp2 uint64, nbytes uint32) ([]Segment, error) {
	if nbytes == 0 {
		return segs, nil
	}
	first := uint32(PageSize - prp1%PageSize) // bytes available in first page
	if first >= nbytes {
		return append(segs, Segment{Addr: prp1, Len: nbytes}), nil
	}
	out := append(segs, Segment{Addr: prp1, Len: first})
	rem := nbytes - first

	if rem <= PageSize {
		if prp2 == 0 || prp2%PageSize != 0 {
			return segs, fmt.Errorf("%w: PRP2 %#x not page aligned", ErrBadPRP, prp2)
		}
		return append(out, Segment{Addr: prp2, Len: rem}), nil
	}

	// PRP2 is a pointer to a PRP list.
	listAddr := prp2
	if listAddr == 0 || listAddr%8 != 0 {
		return segs, fmt.Errorf("%w: PRP list pointer %#x", ErrBadPRP, listAddr)
	}
	if entry == nil {
		entry = new([8]byte)
	}
	entriesInPage := func(addr uint64) int { return int((PageSize - addr%PageSize) / 8) }
	avail := entriesInPage(listAddr)
	for n := 0; rem > 0; n++ {
		if n >= maxPRPList {
			return segs, fmt.Errorf("%w: list too long", ErrBadPRP)
		}
		if err := mem.ReadAt(entry[:], listAddr); err != nil {
			return segs, err
		}
		ptr := leU64(entry[:])
		// The last entry of a full list page chains to the next list page
		// if more entries are still needed.
		if avail == 1 && rem > PageSize {
			if ptr == 0 || ptr%PageSize != 0 {
				return segs, fmt.Errorf("%w: chain pointer %#x", ErrBadPRP, ptr)
			}
			listAddr = ptr
			avail = entriesInPage(listAddr)
			continue
		}
		if ptr == 0 || ptr%PageSize != 0 {
			return segs, fmt.Errorf("%w: list entry %#x", ErrBadPRP, ptr)
		}
		l := uint32(PageSize)
		if rem < l {
			l = rem
		}
		out = append(out, Segment{Addr: ptr, Len: l})
		rem -= l
		listAddr += 8
		avail--
	}
	return out, nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// BuildPRP constructs PRP1/PRP2 for a transfer over the given page-aligned
// data pages (each PageSize long except possibly the last). When more than
// two pages are needed, list pages are allocated via alloc and the list is
// written into guest memory. It returns the PRP pair.
func BuildPRP(mem Memory, pages []uint64, alloc func() uint64) (prp1, prp2 uint64, err error) {
	switch len(pages) {
	case 0:
		return 0, 0, nil
	case 1:
		return pages[0], 0, nil
	case 2:
		return pages[0], pages[1], nil
	}
	prp1 = pages[0]
	rest := pages[1:]
	listAddr := alloc()
	prp2 = listAddr
	buf := make([]byte, 8)
	perPage := PageSize / 8
	for i := 0; i < len(rest); {
		slot := listAddr
		n := perPage
		if len(rest)-i > n {
			n-- // reserve last slot for the chain pointer
		} else {
			n = len(rest) - i
		}
		for j := 0; j < n; j++ {
			putU64(buf, rest[i+j])
			if err := mem.WriteAt(buf, slot+uint64(j*8)); err != nil {
				return 0, 0, err
			}
		}
		i += n
		if i < len(rest) {
			next := alloc()
			putU64(buf, next)
			if err := mem.WriteAt(buf, slot+uint64((perPage-1)*8)); err != nil {
				return 0, 0, err
			}
			listAddr = next
		}
	}
	return prp1, prp2, nil
}

// TotalLen sums segment lengths.
func TotalLen(segs []Segment) uint32 {
	var n uint32
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// ReadSegments copies the segments' contents from guest memory into one
// contiguous buffer.
func ReadSegments(mem Memory, segs []Segment, buf []byte) error {
	off := uint32(0)
	for _, s := range segs {
		if err := mem.ReadAt(buf[off:off+s.Len], s.Addr); err != nil {
			return err
		}
		off += s.Len
	}
	return nil
}

// WriteSegments copies buf into the segments in guest memory.
func WriteSegments(mem Memory, segs []Segment, buf []byte) error {
	off := uint32(0)
	for _, s := range segs {
		if err := mem.WriteAt(buf[off:off+s.Len], s.Addr); err != nil {
			return err
		}
		off += s.Len
	}
	return nil
}
