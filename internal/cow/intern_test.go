package cow

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmetro/internal/bufpool"
	"nvmetro/internal/device"
)

// internGolden seals a random golden image of the given number of chunks
// and returns it with a MemStore holding the same bytes.
func internGolden(rng *rand.Rand, chunks int) (*Index, *Store, []byte) {
	ix := NewIndex(Config{BlockSize: 512})
	g := NewStore(ix, uint64(chunks)*64, nil)
	img := fill(rng, chunks*64*512)
	g.WriteBlocks(0, img)
	g.Snapshot()
	return ix, g, img
}

// TestInternedPagesOnePerContent: clones that write the same contents —
// whole pages from a small pool, and sub-page writes of the same bytes at
// the same place over the same golden page — leave exactly one resident
// page entry per distinct page content across the whole fleet.
func TestInternedPagesOnePerContent(t *testing.T) {
	const clones, chunks = 16, 8
	rng := rand.New(rand.NewSource(31))
	ix, golden, _ := internGolden(rng, chunks)
	pool := [][]byte{fill(rng, 4096), fill(rng, 4096), fill(rng, 4096), make([]byte, 4096)}
	patch := fill(rng, 3*512)

	stores := make([]*Store, clones)
	distinct := make(map[string]bool)
	page := make([]byte, 4096)
	for c := range stores {
		s := golden.Clone()
		stores[c] = s
		for cn := uint64(0); cn < chunks; cn++ {
			// Page (c+cn)%7 of the chunk from the pool; page 7 patched in
			// part by every clone alike.
			pi := (uint64(c) + cn) % 7
			s.WriteBlocks(cn*64+pi*8, pool[(c+int(cn))%len(pool)])
			s.WriteBlocks(cn*64+7*8+2, patch)
			for _, p := range []uint64{pi, 7} {
				s.ReadBlocks(cn*64+p*8, page)
				distinct[string(page)] = true
			}
		}
	}
	if got, want := ix.residentPages(), len(distinct); got != want {
		t.Fatalf("%d clones hold %d page entries for %d distinct contents", clones, got, want)
	}
	if want := len(pool) + chunks; len(distinct) != want { // pool pages + one patched page per chunk
		t.Fatalf("test set-up: %d distinct contents, want %d", len(distinct), want)
	}
	for _, s := range stores {
		s.Close()
	}
	golden.Close()
	if n := ix.residentPages(); n != 0 {
		t.Fatalf("%d page entries resident after every store closed", n)
	}
}

// TestSubPageWriteKeepsSharedPage: clones holding one page entry in common
// never see each other's sub-page writes. The writer gets a new entry; the
// shared one keeps its bytes for the other clones; a third clone that lays
// the same bytes over the same page joins the writer's entry.
func TestSubPageWriteKeepsSharedPage(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ix, golden, _ := internGolden(rng, 2)
	same := fill(rng, 4096)
	a, b, c := golden.Clone(), golden.Clone(), golden.Clone()
	for _, s := range []*Store{a, b, c} {
		s.WriteBlocks(64+16, same) // chunk 1, page 2
	}
	shared := a.mut[1].pages[2]
	if b.mut[1].pages[2] != shared || c.mut[1].pages[2] != shared || ix.residentPages() != 1 {
		t.Fatalf("identical page writes hold %d entries, want 1 shared", ix.residentPages())
	}
	patch := fill(rng, 512)
	a.WriteBlocks(64+16+5, patch)
	want := append([]byte(nil), same...)
	copy(want[5*512:], patch)
	got := make([]byte, 4096)
	a.ReadBlocks(64+16, got)
	if !bytes.Equal(got, want) {
		t.Fatal("the writer does not read its own sub-page write")
	}
	for _, s := range []*Store{b, c} {
		s.ReadBlocks(64+16, got)
		if !bytes.Equal(got, same) {
			t.Fatal("a sub-page write by one clone changed a page another clone shares")
		}
	}
	if !bytes.Equal(shared.Bytes(), same) {
		t.Fatal("the shared entry's bytes changed")
	}
	c.WriteBlocks(64+16+5, patch)
	if c.mut[1].pages[2] != a.mut[1].pages[2] || ix.residentPages() != 2 {
		t.Fatalf("the same sub-page write by two clones holds %d entries, want 2 (old and new)", ix.residentPages())
	}
	// The shared entry's references were b's and c's alone: c's write let
	// go of one and left it resident (above), and b's close lets go of the
	// other and frees it. A count one too high keeps it resident here; one
	// too low freed it at c's write.
	b.Close()
	if n := ix.residentPages(); n != 1 {
		t.Fatalf("the shared entry's refs are off: %d entries resident once b and c let go of it, want 1", n)
	}
	for _, s := range []*Store{a, c} {
		s.Close()
	}
	golden.Close()
}

// TestPageEntriesReleased: overwrites, partial and whole-chunk trims,
// snapshots and closes release every page entry they replace or drop, so
// nothing stays resident once every store is closed. It runs with
// bufpool.Poison set, which overwrites a freed entry: a page still read
// after its last reference went would show in the oracle's reads.
func TestPageEntriesReleased(t *testing.T) {
	defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
	bufpool.Poison = true
	const chunks = 16
	rng := rand.New(rand.NewSource(41))
	ix, golden, img := internGolden(rng, chunks)
	pool := [][]byte{fill(rng, 4096), fill(rng, 4096), fill(rng, 512)}

	// A freed entry is overwritten.
	x := golden.Clone()
	x.WriteBlocks(8, fill(rng, 4096))
	freed := x.mut[0].pages[1]
	x.Close()
	if !bytes.Equal(freed.Bytes(), bytes.Repeat([]byte{0xDB}, 4096)) {
		t.Fatal("a freed page entry was not poisoned")
	}

	var oracles []*oracle
	for c := 0; c < 6; c++ {
		mem := device.NewMemStore(512)
		mem.WriteBlocks(0, img)
		oracles = append(oracles, &oracle{cow: golden.Clone(), mem: mem})
	}
	for i := 0; i < 1500; i++ {
		o := oracles[rng.Intn(len(oracles))]
		lba := uint64(rng.Intn(chunks*64-8)) &^ 7
		switch rng.Intn(10) {
		case 0:
			o.trim(lba+uint64(rng.Intn(4)), uint32(1+rng.Intn(12))) // partial
		case 1:
			o.trim(lba&^63, 64) // whole chunk
		case 2:
			o.cow.Snapshot()
		case 3:
			// Drop this tenant and start a fresh clone in its place.
			o.cow.Close()
			o.cow = golden.Clone()
			o.mem = device.NewMemStore(512)
			o.mem.WriteBlocks(0, img)
		case 4, 5:
			o.write(lba+uint64(rng.Intn(8)), pool[2]) // sub-page, shared bytes
		default:
			o.write(lba, pool[rng.Intn(2)]) // whole page, shared bytes
		}
		o.check(t, lba&^63, 64)
	}
	for _, o := range oracles {
		o.check(t, 0, chunks*64)
		if o.cow.ContentCRC() != o.mem.ContentCRC() {
			t.Fatal("ContentCRC mismatch")
		}
	}
	if ix.residentPages() == 0 {
		t.Fatal("the run left no private pages to release: the test needs more writes")
	}
	for _, o := range oracles {
		o.cow.Close()
	}
	golden.Close()
	if n := ix.residentPages(); n != 0 {
		t.Fatalf("%d page entries resident after every store closed", n)
	}
	if n := ix.Chunks(); n != 0 {
		t.Fatalf("%d chunks resident after every store closed", n)
	}
}
