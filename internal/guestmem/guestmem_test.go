package guestmem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	m := New(1 << 20)
	buf := []byte{1, 2, 3, 4}
	if err := m.ReadAt(buf, 0x8000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatalf("got %v", buf)
	}
	if len(m.pages) != 0 {
		t.Fatal("read materialized a page")
	}
}

func TestWriteReadCrossPage(t *testing.T) {
	m := New(1 << 20)
	src := make([]byte, 3*PageSize+123)
	for i := range src {
		src[i] = byte(i)
	}
	addr := uint64(PageSize - 77)
	if err := m.WriteAt(src, addr); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.ReadAt(dst, addr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	m := New(PageSize)
	if err := m.WriteAt(make([]byte, 8), PageSize-4); err == nil {
		t.Fatal("want out of range write error")
	}
	if err := m.ReadAt(make([]byte, 1), PageSize); err == nil {
		t.Fatal("want out of range read error")
	}
}

// An access whose end wraps past 2^64 is out of range, however small: the
// guest chooses addr, so addr+len must not be trusted.
func TestOutOfRangeWraps(t *testing.T) {
	m := New(1 << 20)
	for _, c := range []struct {
		addr uint64
		n    int
	}{
		{math.MaxUint64 - PageSize + 1, PageSize}, // top page: end is exactly 2^64
		{math.MaxUint64, 2},
		{math.MaxUint64 - 7, 16},
		{m.Size() + 1, 0},
		{m.Size(), 1},
		{m.Size() - 1, 2},
	} {
		if err := m.WriteAt(make([]byte, c.n), c.addr); err == nil {
			t.Errorf("write [%#x,+%d) accepted", c.addr, c.n)
		}
		if err := m.ReadAt(make([]byte, c.n), c.addr); err == nil {
			t.Errorf("read [%#x,+%d) accepted", c.addr, c.n)
		}
	}
	if len(m.pages) != 0 {
		t.Fatalf("refused accesses indexed %d pages", len(m.pages))
	}
	// The last byte and an empty access at the very end are in range.
	if err := m.WriteAt([]byte{7}, m.Size()-1); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(nil, m.Size()); err != nil {
		t.Fatal(err)
	}
}

// Random reads and writes, the last page included, match a flat image; reads
// never create a page, so only pages a write touched are indexed.
func TestMatchesFlatImage(t *testing.T) {
	const size = 64 * PageSize
	m := New(size)
	flat := make([]byte, size)
	written := make([]bool, size/PageSize)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rnd.Intn(3*PageSize) + 1
		addr := uint64(rnd.Intn(size - n + 1))
		if i%4 == 0 {
			addr = size - uint64(n) // end on the last byte
		}
		buf := make([]byte, n)
		if rnd.Intn(2) == 0 {
			rnd.Read(buf)
			if err := m.WriteAt(buf, addr); err != nil {
				t.Fatal(err)
			}
			copy(flat[addr:], buf)
			for pn := addr / PageSize; pn <= (addr+uint64(n)-1)/PageSize; pn++ {
				written[pn] = true
			}
		} else {
			if err := m.ReadAt(buf, addr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, flat[addr:addr+uint64(n)]) {
				t.Fatalf("step %d: read [%#x,+%d) differs from the flat image", i, addr, n)
			}
		}
		for pn, pg := range m.pages {
			if (pg != nil) != written[pn] {
				t.Fatalf("step %d: page %d indexed=%v, written=%v", i, pn, pg != nil, written[pn])
			}
		}
	}
	if !written[size/PageSize-1] {
		t.Fatal("the last page was never written")
	}
}

// Once its pages exist, reading and writing guest memory allocates nothing,
// across a page boundary and into a page never written included.
func TestWarmAccessAllocs(t *testing.T) {
	m := New(1 << 20)
	base := m.MustAllocPages(4)
	buf := make([]byte, 2*PageSize)
	if err := m.WriteAt(buf, base); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.WriteAt(buf[:PageSize], base+100)
		m.ReadAt(buf, base+PageSize/2)
		m.ReadAt(buf, base+2*PageSize) // the second page was never written
	}); n != 0 {
		t.Errorf("%v allocs per warm access, want 0", n)
	}
}

func TestAllocPagesSequentialAligned(t *testing.T) {
	m := New(1 << 20)
	a := m.MustAllocPages(2)
	b := m.MustAllocPages(1)
	if a%PageSize != 0 || b != a+2*PageSize {
		t.Fatalf("a=%#x b=%#x", a, b)
	}
	if a == 0 {
		t.Fatal("address 0 must stay invalid")
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(4 * PageSize)
	m.MustAllocPages(3) // page 0 reserved, 3 allocatable
	if _, err := m.allocPages(1); err == nil {
		t.Fatal("want exhaustion")
	}
}

func TestAllocBuffer(t *testing.T) {
	m := New(1 << 20)
	base, pages, err := m.AllocBuffer(PageSize*2 + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 || pages[0] != base || pages[2] != base+2*PageSize {
		t.Fatalf("pages %v base %#x", pages, base)
	}
}

// Property: any write followed by a read of the same range returns the data.
func TestWriteReadProperty(t *testing.T) {
	m := New(1 << 22)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		a := uint64(addr) % (m.Size() - uint64(len(data)))
		if err := m.WriteAt(data, a); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.ReadAt(got, a); err != nil {
			return false
		}
		return bytes.Equal(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
