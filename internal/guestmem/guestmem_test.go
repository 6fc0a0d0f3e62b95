package guestmem

import (
	"bytes"
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
