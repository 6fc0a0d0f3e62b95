package virtio

import (
	"bytes"
	"testing"
	"testing/quick"

	"nvmetro/internal/guestmem"
)

func newRing(size uint16) (*Vring, *guestmem.Memory) {
	mem := guestmem.New(8 << 20)
	return newVring(mem, size), mem
}

func TestVringAddPopChain(t *testing.T) {
	v, mem := newRing(16)
	dataAddr := mem.MustAllocPages(1)
	mem.WriteAt([]byte("hello"), dataAddr)
	head, ok := v.addChain([]buffer{
		{Addr: 0x100, Len: 16},
		{Addr: dataAddr, Len: 5},
		{Addr: 0x200, Len: 1, DevWrit: true},
	})
	if !ok {
		t.Fatal("add failed")
	}
	if !v.AvailPending() || v.AvailCount() != 1 {
		t.Fatal("avail not visible")
	}
	got, ok := v.popAvail()
	if !ok || got != head {
		t.Fatalf("pop %d want %d", got, head)
	}
	chain, err := v.readChain(head)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[1].Len != 5 || chain[2].Flags&descWrite == 0 {
		t.Fatalf("chain %+v", chain)
	}
	buf := make([]byte, 5)
	mem.ReadAt(buf, chain[1].Addr)
	if string(buf) != "hello" {
		t.Fatal("data addr wrong")
	}
}

func TestVringUsedRoundTripAndFreeList(t *testing.T) {
	v, _ := newRing(8)
	for round := 0; round < 40; round++ { // force many wraps
		head, ok := v.addChain([]buffer{{Addr: 0x1000, Len: 16}, {Addr: 0x2000, Len: 1, DevWrit: true}})
		if !ok {
			t.Fatalf("round %d: ring exhausted (free list leak)", round)
		}
		got, ok := v.popAvail()
		if !ok || got != head {
			t.Fatalf("round %d: pop avail", round)
		}
		v.pushUsed(head, 1)
		uh, ok := v.popUsed()
		if !ok || uh != head {
			t.Fatalf("round %d: pop used", round)
		}
		if len(v.free) != 8 {
			t.Fatalf("round %d: free %d, want 8", round, len(v.free))
		}
	}
}

func TestVringExhaustion(t *testing.T) {
	v, _ := newRing(4)
	if _, ok := v.addChain([]buffer{{Addr: 1, Len: 1}, {Addr: 2, Len: 1}, {Addr: 3, Len: 1}, {Addr: 4, Len: 1}, {Addr: 5, Len: 1}}); ok {
		t.Fatal("oversized chain accepted")
	}
	for i := 0; i < 2; i++ {
		if _, ok := v.addChain([]buffer{{Addr: 1, Len: 1}, {Addr: 2, Len: 1}}); !ok {
			t.Fatal("add failed")
		}
	}
	if _, ok := v.addChain([]buffer{{Addr: 1, Len: 1}}); ok {
		t.Fatal("add to full ring accepted")
	}
}

func TestVringMultipleOutstanding(t *testing.T) {
	v, _ := newRing(32)
	var heads []uint16
	for i := 0; i < 10; i++ {
		h, ok := v.addChain([]buffer{{Addr: uint64(i) * 0x1000, Len: 64}})
		if !ok {
			t.Fatal("add")
		}
		heads = append(heads, h)
	}
	// Device consumes in order.
	for i := 0; i < 10; i++ {
		h, ok := v.popAvail()
		if !ok || h != heads[i] {
			t.Fatalf("pop %d", i)
		}
	}
	// Completes out of order.
	for _, i := range []int{3, 0, 9, 5, 1, 2, 4, 6, 7, 8} {
		v.pushUsed(heads[i], 0)
	}
	seen := map[uint16]bool{}
	for i := 0; i < 10; i++ {
		h, ok := v.popUsed()
		if !ok {
			t.Fatal("pop used")
		}
		seen[h] = true
	}
	if len(seen) != 10 {
		t.Fatalf("saw %d distinct heads", len(seen))
	}
}

// Property: any sequence of add/complete cycles preserves descriptor count.
func TestVringDescriptorConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		v, _ := newRing(16)
		outstanding := []uint16{}
		for _, op := range ops {
			if op%2 == 0 && len(v.free) >= 2 {
				h, ok := v.addChain([]buffer{{Addr: 0x1000, Len: 8}, {Addr: 0x2000, Len: 8, DevWrit: true}})
				if !ok {
					return false
				}
				if got, ok := v.popAvail(); !ok || got != h {
					return false
				}
				outstanding = append(outstanding, h)
			} else if len(outstanding) > 0 {
				h := outstanding[0]
				outstanding = outstanding[1:]
				v.pushUsed(h, 8)
				if got, ok := v.popUsed(); !ok || got != h {
					return false
				}
			}
		}
		return len(v.free) == 16-2*len(outstanding)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseChainAndData(t *testing.T) {
	mem := guestmem.New(8 << 20)
	ring := newVring(mem, 16)
	q := &Queue{Index: 0, Ring: ring, Mem: mem}
	hdr := mem.MustAllocPages(1)
	data := mem.MustAllocPages(1)
	status := hdr + 512
	payload := bytes.Repeat([]byte{0xab}, 600)
	mem.WriteAt(payload, data)
	head, _ := ring.addChain([]buffer{
		{Addr: hdr, Len: 16},
		{Addr: data, Len: 600},
		{Addr: status, Len: 1, DevWrit: true},
	})
	ring.popAvail()
	r, err := parseChain(q, head)
	if err != nil {
		t.Fatal(err)
	}
	if r.HdrAddr != hdr || r.StatusAddr != status || r.DataLen() != 600 {
		t.Fatalf("parse %+v", r)
	}
	buf := make([]byte, 600)
	r.ReadData(q, buf)
	if !bytes.Equal(buf, payload) {
		t.Fatal("ReadData")
	}
	// WriteData writes back.
	resp := bytes.Repeat([]byte{0x11}, 600)
	r.WriteData(q, resp)
	mem.ReadAt(buf, data)
	if !bytes.Equal(buf, resp) {
		t.Fatal("WriteData")
	}
	// Complete sets status and pushes used.
	r.Complete(q, 0x55)
	var st [1]byte
	mem.ReadAt(st[:], status)
	if st[0] != 0x55 {
		t.Fatal("status byte")
	}
	if h, ok := ring.popUsed(); !ok || h != head {
		t.Fatal("used")
	}
}

// TestReadChainRejectsHostileIndices feeds ReadChain what a hostile guest
// can write: a head or a Next past the descriptor table, a table that runs
// off the end of guest memory, and a chain longer than the queue (a loop).
// A chain of exactly the queue size is the longest legal one.
func TestReadChainRejectsHostileIndices(t *testing.T) {
	const size = 8
	// chain links descriptors 0..n-1 in order; loop makes the last one point
	// back at 0.
	chain := func(v *Vring, n int, loop bool) {
		for i := 0; i < n; i++ {
			d := Desc{Addr: 0x1000, Len: 8}
			if i < n-1 {
				d.Flags, d.Next = descNext, uint16(i+1)
			} else if loop {
				d.Flags, d.Next = descNext, 0
			}
			v.writeDesc(uint16(i), d)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(v *Vring) uint16 // returns the head
		want  int                   // descriptors read; -1: an error
	}{
		{"head past table", func(v *Vring) uint16 { chain(v, 1, false); return size }, -1},
		{"next past table", func(v *Vring) uint16 {
			v.writeDesc(0, Desc{Addr: 0x1000, Len: 8, Flags: descNext, Next: size})
			return 0
		}, -1},
		{"table past guest memory", func(v *Vring) uint16 {
			v.descAddr = v.mem.Size() - 2*descSize // descriptors 2.. lie past the end
			chain(v, 3, false)
			return 0
		}, -1},
		{"chain of queue size", func(v *Vring) uint16 { chain(v, size, false); return 0 }, size},
		{"chain of queue size plus one", func(v *Vring) uint16 { chain(v, size, true); return 0 }, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := newRing(size)
			head := tc.setup(v)
			got, err := v.readChain(head)
			switch {
			case tc.want < 0 && err == nil:
				t.Fatalf("accepted a %d-descriptor chain", len(got))
			case tc.want >= 0 && err != nil:
				t.Fatal(err)
			case tc.want >= 0 && len(got) != tc.want:
				t.Fatalf("read %d descriptors, want %d", len(got), tc.want)
			}
		})
	}
}
