package nvme

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nvmetro/internal/guestmem"
)

// walkPRPReference is WalkPRP as it stood before AppendPRP existed, kept
// verbatim so the append-style walk is pinned to it segment for segment and
// error for error.
func walkPRPReference(mem Memory, prp1, prp2 uint64, nbytes uint32) ([]Segment, error) {
	if nbytes == 0 {
		return nil, nil
	}
	var segs []Segment
	first := uint32(PageSize - prp1%PageSize) // bytes available in first page
	if first >= nbytes {
		return []Segment{{Addr: prp1, Len: nbytes}}, nil
	}
	segs = append(segs, Segment{Addr: prp1, Len: first})
	rem := nbytes - first

	if rem <= PageSize {
		if prp2 == 0 || prp2%PageSize != 0 {
			return nil, fmt.Errorf("%w: PRP2 %#x not page aligned", ErrBadPRP, prp2)
		}
		return append(segs, Segment{Addr: prp2, Len: rem}), nil
	}

	// PRP2 is a pointer to a PRP list.
	listAddr := prp2
	if listAddr == 0 || listAddr%8 != 0 {
		return nil, fmt.Errorf("%w: PRP list pointer %#x", ErrBadPRP, listAddr)
	}
	entry := make([]byte, 8)
	entriesInPage := func(addr uint64) int { return int((PageSize - addr%PageSize) / 8) }
	avail := entriesInPage(listAddr)
	for n := 0; rem > 0; n++ {
		if n >= maxPRPList {
			return nil, fmt.Errorf("%w: list too long", ErrBadPRP)
		}
		if err := mem.ReadAt(entry, listAddr); err != nil {
			return nil, err
		}
		ptr := leU64(entry)
		// The last entry of a full list page chains to the next list page
		// if more entries are still needed.
		if avail == 1 && rem > PageSize {
			if ptr == 0 || ptr%PageSize != 0 {
				return nil, fmt.Errorf("%w: chain pointer %#x", ErrBadPRP, ptr)
			}
			listAddr = ptr
			avail = entriesInPage(listAddr)
			continue
		}
		if ptr == 0 || ptr%PageSize != 0 {
			return nil, fmt.Errorf("%w: list entry %#x", ErrBadPRP, ptr)
		}
		l := uint32(PageSize)
		if rem < l {
			l = rem
		}
		segs = append(segs, Segment{Addr: ptr, Len: l})
		rem -= l
		listAddr += 8
		avail--
	}
	return segs, nil
}

type prpCase struct {
	name       string
	prp1, prp2 uint64
	nbytes     uint32
}

// prpTable builds, in mem, every shape a guest can hand the walker: the
// well-formed ones (offset PRP1, PRP2, one list page, a chained list) and
// each way of getting one wrong.
func prpTable(t testing.TB, mem *guestmem.Memory) []prpCase {
	alloc := func() uint64 { return mem.MustAllocPages(1) }
	list := func(npages int) (uint64, uint64) {
		pages := make([]uint64, npages)
		for i := range pages {
			pages[i] = alloc()
		}
		prp1, prp2, err := BuildPRP(mem, pages, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return prp1, prp2
	}
	poke := func(addr, v uint64) {
		var b [8]byte
		putU64(b[:], v)
		if err := mem.WriteAt(b[:], addr); err != nil {
			t.Fatal(err)
		}
	}
	a, b := alloc(), alloc()
	l3p1, l3p2 := list(3)
	l33p1, l33p2 := list(33)
	c513p1, c513p2 := list(513) // 511 entries + chain on the first list page
	long1, long2 := list(520)   // more entries than maxPRPList
	bad1, badEntry := list(5)
	poke(badEntry+2*8, 0x1234) // third list entry not page aligned
	chain1, badChain := list(513)
	poke(badChain+511*8, 0x10) // chain pointer not page aligned
	zero1, zeroEntry := list(4)
	poke(zeroEntry+8, 0) // second list entry null
	return []prpCase{
		{"empty", a, 0, 0},
		{"one page", a, 0, 512},
		{"offset PRP1 fits", a + 0x200, 0, 512},
		{"offset PRP1 to end of page", a + 0x200, 0, PageSize - 0x200},
		{"whole page", a, 0, PageSize},
		{"offset PRP1 spills into PRP2", a + 0x800, b, PageSize},
		{"two pages", a, b, 2 * PageSize},
		{"PRP2 unaligned", a, b + 8, 2 * PageSize},
		{"PRP2 null", a, 0, PageSize + 1},
		{"list of 3", l3p1, l3p2, 3 * PageSize},
		{"list of 3, short tail", l3p1, l3p2, 2*PageSize + 1},
		{"list of 33 (128 KiB + 4 KiB)", l33p1, l33p2, 33 * PageSize},
		{"offset PRP1 with list", l33p1 + 0x600, l33p2, 32 * PageSize},
		{"chained list of 513", c513p1, c513p2, 513 * PageSize},
		{"list pointer null", a, 0, 3 * PageSize},
		{"list pointer unaligned", a, l3p2 + 3, 3 * PageSize},
		{"list pointer past memory", a, 1 << 40, 3 * PageSize},
		{"list entry unaligned", bad1, badEntry, 5 * PageSize},
		{"list entry null", zero1, zeroEntry, 4 * PageSize},
		{"chain pointer unaligned", chain1, badChain, 513 * PageSize},
		{"list too long", long1, long2, 520 * PageSize},
	}
}

// TestAppendPRPMatchesWalkPRP pins AppendPRP — cold, warmed, and appending
// behind a prefix it must leave alone — and the WalkPRP wrapper to the
// pre-AppendPRP walker over the whole table: the same segments, the same
// error text, errors.Is(ErrBadPRP) alike, and on error the input returned
// as passed.
func TestAppendPRPMatchesWalkPRP(t *testing.T) {
	mem := guestmem.New(16 << 20)
	prefix := Segment{Addr: 0xfeed000, Len: 7}
	warm := make([]Segment, 0, 4)
	var entry [8]byte
	for _, tc := range prpTable(t, mem) {
		want, wantErr := walkPRPReference(mem, tc.prp1, tc.prp2, tc.nbytes)
		sameErr := func(how string, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil &&
				(err.Error() != wantErr.Error() || errors.Is(err, ErrBadPRP) != errors.Is(wantErr, ErrBadPRP)) {
				t.Errorf("%s: %s: err %v, want %v", tc.name, how, err, wantErr)
			}
		}
		got, err := WalkPRP(mem, tc.prp1, tc.prp2, tc.nbytes)
		sameErr("WalkPRP", err)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%s: WalkPRP %v, want %v", tc.name, got, want)
		}
		got, err = AppendPRP(nil, nil, mem, tc.prp1, tc.prp2, tc.nbytes)
		sameErr("cold", err)
		if !slices.Equal(got, want) {
			t.Errorf("%s: cold AppendPRP %v, want %v", tc.name, got, want)
		}
		warm, err = AppendPRP(warm[:0], &entry, mem, tc.prp1, tc.prp2, tc.nbytes)
		sameErr("warm", err)
		if !slices.Equal(warm, want) {
			t.Errorf("%s: warm AppendPRP %v, want %v", tc.name, warm, want)
		}
		pre := []Segment{prefix}
		got, err = AppendPRP(pre, &entry, mem, tc.prp1, tc.prp2, tc.nbytes)
		sameErr("behind a prefix", err)
		if len(got) == 0 || got[0] != prefix || !slices.Equal(got[1:], want) {
			t.Errorf("%s: AppendPRP behind a prefix %v, want %v + %v", tc.name, got, prefix, want)
		}
		if err != nil && len(got) != 1 {
			t.Errorf("%s: a failed walk returned %d segments, want the input's 1", tc.name, len(got))
		}
	}
}

// TestAppendPRPZeroAlloc: with its segments and list-entry scratch kept from
// one walk to the next, a well-formed walk of any shape allocates nothing.
func TestAppendPRPZeroAlloc(t *testing.T) {
	mem := guestmem.New(16 << 20)
	segs := make([]Segment, 0, 1)
	var entry [8]byte
	for _, tc := range prpTable(t, mem) {
		if _, err := walkPRPReference(mem, tc.prp1, tc.prp2, tc.nbytes); err != nil {
			continue
		}
		segs, _ = AppendPRP(segs[:0], &entry, mem, tc.prp1, tc.prp2, tc.nbytes) // warm
		if n := testing.AllocsPerRun(20, func() {
			segs, _ = AppendPRP(segs[:0], &entry, mem, tc.prp1, tc.prp2, tc.nbytes)
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per warmed walk, want 0", tc.name, n)
		}
	}
}

// FuzzAppendPRP walks fuzzed PRP pairs over the guest memory prpTable
// builds, after writing one fuzzed 8-byte word into it (the seeds write zero
// at address 0, which no list reaches). Addresses and the word are reduced
// into guest memory, so every pointer the walker can follow lies inside it.
// AppendPRP must not panic and must agree with walkPRPReference segment for
// segment and error for error; on success its segments lie inside guest
// memory and sum to nbytes. The seeds are the table's rows.
func FuzzAppendPRP(f *testing.F) {
	mem := guestmem.New(16 << 20)
	for _, tc := range prpTable(f, mem) {
		f.Add(tc.prp1, tc.prp2, tc.nbytes, uint64(0), uint64(0))
	}
	size := mem.Size()
	f.Fuzz(func(t *testing.T, prp1, prp2 uint64, nbytes uint32, at, word uint64) {
		prp1, prp2, at = prp1%size, prp2%size, at%size&^7
		var old, w [8]byte
		if err := mem.ReadAt(old[:], at); err != nil {
			t.Fatal(err)
		}
		putU64(w[:], word%size)
		if err := mem.WriteAt(w[:], at); err != nil {
			t.Fatal(err)
		}
		defer mem.WriteAt(old[:], at)

		want, wantErr := walkPRPReference(mem, prp1, prp2, nbytes)
		got, err := AppendPRP(nil, nil, mem, prp1, prp2, nbytes)
		if (err == nil) != (wantErr == nil) || err != nil &&
			(err.Error() != wantErr.Error() || errors.Is(err, ErrBadPRP) != errors.Is(wantErr, ErrBadPRP)) {
			t.Fatalf("err %v, want %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("segments %v, want %v", got, want)
		}
		if err != nil {
			return
		}
		for _, s := range got {
			if s.Addr >= size || uint64(s.Len) > size-s.Addr {
				t.Fatalf("segment %+v outside %d bytes of guest memory", s, size)
			}
		}
		if n := TotalLen(got); n != nbytes {
			t.Fatalf("segments cover %d bytes, want %d", n, nbytes)
		}
	})
}
