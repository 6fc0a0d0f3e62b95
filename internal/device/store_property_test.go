package device

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// naiveStore is a flat byte-array reference model for MemStore: no chunk
// structure at all, so any chunk-boundary bug in MemStore diverges from it.
type naiveStore struct {
	data []byte
	bs   int
}

func newNaive(blocks uint64, bs int) *naiveStore {
	return &naiveStore{data: make([]byte, blocks*uint64(bs)), bs: bs}
}

func (n *naiveStore) write(lba uint64, buf []byte) { copy(n.data[lba*uint64(n.bs):], buf) }

func (n *naiveStore) trim(lba uint64, blocks uint32) {
	clear(n.data[lba*uint64(n.bs) : (lba+uint64(blocks))*uint64(n.bs)])
}

func (n *naiveStore) read(lba uint64, buf []byte) { copy(buf, n.data[lba*uint64(n.bs):]) }

// TestMemStoreTrimProperty drives random writes and trims — biased toward
// the 64-block chunk boundary cases the CoW layer's dedup and GC lean on
// (exact-chunk trims that drop chunks, partial trims that zero in place,
// trims spanning chunk seams, trims of never-written space) — against the
// flat reference model.
func TestMemStoreTrimProperty(t *testing.T) {
	const blocks = 4096
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ms := NewMemStore(512)
		ns := newNaive(blocks, 512)
		for i := 0; i < 600; i++ {
			var lba uint64
			var n int
			if rng.Intn(2) == 0 {
				// Chunk-aligned span: starts on a 64-block boundary, whole
				// chunks long.
				lba = uint64(rng.Intn(blocks/chunkBlocks-2)) * chunkBlocks
				n = (1 + rng.Intn(2)) * chunkBlocks
			} else {
				// Arbitrary span, often straddling a seam.
				lba = uint64(rng.Intn(blocks - 200))
				n = 1 + rng.Intn(200)
			}
			switch rng.Intn(3) {
			case 0:
				buf := make([]byte, n*512)
				rng.Read(buf)
				ms.WriteBlocks(lba, buf)
				ns.write(lba, buf)
			default:
				ms.TrimBlocks(lba, uint32(n))
				ns.trim(lba, uint32(n))
			}
			got := make([]byte, 200*512)
			want := make([]byte, 200*512)
			ms.ReadBlocks(lba, got)
			ns.read(lba, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d iter %d: read mismatch after op at lba %d x%d", seed, i, lba, n)
			}
		}
		// Full-image sweep.
		got := make([]byte, blocks*512)
		ms.ReadBlocks(0, got)
		if !bytes.Equal(got, ns.data) {
			t.Fatalf("seed %d: final image mismatch", seed)
		}
	}
}

// TestContentCRCSparseEquivalence checks the fingerprint invariant the CoW
// layer's divergence checks rely on: two MemStores holding the same
// logical bytes report the same ContentCRC even when one materialized
// pages (via write-then-sub-page-trim or partial zero writes) that the
// other never touched.
func TestContentCRCSparseEquivalence(t *testing.T) {
	const blocks = 2048
	rng := rand.New(rand.NewSource(21))

	sparse := NewMemStore(512)
	dense := NewMemStore(512)

	// Identical payload writes to both, confined to the lower half so the
	// upper half stays sparse.
	for i := 0; i < 50; i++ {
		lba := uint64(rng.Intn(900))
		buf := make([]byte, (1+rng.Intn(100))*512)
		rng.Read(buf)
		sparse.WriteBlocks(lba, buf)
		dense.WriteBlocks(lba, buf)
	}

	// Materialize extra pages in dense only, with content that is logically
	// zero: a chunk-straddling zero write (which allocates nothing), a
	// partial zero write over a resident page, and write-then-trim back to
	// zero whose trims each cover part of the first page.
	zeros := make([]byte, chunkBlocks*512)
	dense.WriteBlocks(1500, zeros)
	junk := make([]byte, 32*512)
	rng.Read(junk)
	dense.WriteBlocks(1900, junk[:3*512])
	dense.WriteBlocks(1900, zeros[:3*512]) // partial: the page stays resident
	dense.WriteBlocks(1800, junk)
	dense.TrimBlocks(1800, 1)
	dense.TrimBlocks(1801, 31) // sub-page on the first page, whole pages after

	if dense.residentPages() != sparse.residentPages()+2 {
		t.Fatalf("test vacuous: dense holds %d pages, sparse %d; want 2 logically-zero extras", dense.residentPages(), sparse.residentPages())
	}
	if got, want := dense.ContentCRC(), sparse.ContentCRC(); got != want {
		t.Fatalf("sparse-vs-materialized ContentCRC mismatch: %08x vs %08x", got, want)
	}

	// Whole-chunk trims drop residency but must not change the fingerprint
	// when the content was already zero.
	dense.TrimBlocks(1792, chunkBlocks)
	if got, want := dense.ContentCRC(), sparse.ContentCRC(); got != want {
		t.Fatalf("post-trim ContentCRC mismatch: %08x vs %08x", got, want)
	}
}

// TestNextNSID pins the clone-attach ID allocator.
func TestNextNSID(t *testing.T) {
	d := newRig(t, Default970EvoPlus(), NewMemStore(512)).dev
	if got := d.NextNSID(); got != 2 {
		t.Fatalf("fresh device NextNSID = %d, want 2", got)
	}
	d.AddNamespace(2, 128, NewMemStore(512))
	d.AddNamespace(3, 128, NewMemStore(512))
	if got := d.NextNSID(); got != 4 {
		t.Fatalf("NextNSID = %d, want 4", got)
	}
}

// flatCRC is ContentCRC recomputed from a flat image: every 64-block chunk
// holding a non-zero byte is hashed in LBA order, behind its chunk number.
func (n *naiveStore) flatCRC() uint32 {
	crc := crc32.NewIEEE()
	var idbuf [8]byte
	for cn, c := uint64(0), n.data; len(c) > 0; cn++ {
		chunk := c[:min(len(c), chunkBlocks*n.bs)]
		c = c[len(chunk):]
		if bytes.Count(chunk, []byte{0}) == len(chunk) {
			continue
		}
		binary.LittleEndian.PutUint64(idbuf[:], cn)
		crc.Write(idbuf[:])
		crc.Write(chunk)
	}
	return crc.Sum32()
}

// TestMemStoreMatchesFlatReference drives the page store and a flat byte
// image with the same random writes and trims, biased toward the cases
// zero elision turns on: all-zero whole pages (over absent and resident
// pages), partial zero writes into resident pages, writes straddling a page
// and a chunk seam, and whole and partial trims. After every op the
// touched range and ContentCRC must match the reference, whose CRC keeps
// the 64-block chunk framing.
func TestMemStoreMatchesFlatReference(t *testing.T) {
	for _, bs := range []int{512, 4096} {
		const blocks = 8 * chunkBlocks
		pb := max(1, pageBytes/bs) // blocks per page
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ms := NewMemStore(uint32(bs))
			ns := newNaive(blocks, bs)
			for i := 0; i < 800; i++ {
				var lba uint64
				var n int
				switch rng.Intn(3) {
				case 0: // whole pages
					lba = uint64(rng.Intn(blocks/pb-4) * pb)
					n = (1 + rng.Intn(3)) * pb
				case 1: // straddles a chunk seam, and so a page seam
					lba = uint64((1+rng.Intn(blocks/chunkBlocks-1))*chunkBlocks - 1 - rng.Intn(pb+1))
					n = 2 + rng.Intn(2*pb)
				default: // anywhere, often inside one page
					lba = uint64(rng.Intn(blocks - 3*pb))
					n = 1 + rng.Intn(2*pb)
				}
				buf := make([]byte, n*bs)
				switch op := rng.Intn(5); {
				case op <= 1:
					rng.Read(buf)
					if op == 1 { // a few non-zero bytes in a mostly zero payload
						clear(buf[:len(buf)-1-rng.Intn(len(buf))])
					}
					fallthrough
				case op == 2: // all zero
					ms.WriteBlocks(lba, buf)
					ns.write(lba, buf)
				default:
					ms.TrimBlocks(lba, uint32(n))
					ns.trim(lba, uint32(n))
				}
				from := lba - min(lba, uint64(pb))
				got := make([]byte, min(n+2*pb, blocks-int(from))*bs)
				want := make([]byte, len(got))
				ms.ReadBlocks(from, got)
				ns.read(from, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("bs %d seed %d op %d: read mismatch around lba %d x%d", bs, seed, i, lba, n)
				}
				if got, want := ms.ContentCRC(), ns.flatCRC(); got != want {
					t.Fatalf("bs %d seed %d op %d: ContentCRC %08x, flat reference %08x", bs, seed, i, got, want)
				}
			}
			got := make([]byte, blocks*bs)
			ms.ReadBlocks(0, got)
			if !bytes.Equal(got, ns.data) {
				t.Fatalf("bs %d seed %d: final image mismatch", bs, seed)
			}
		}
	}
}

// TestMemStoreHoldsOnlyNonZeroPages: an all-zero write allocates nothing,
// whether it covers whole pages or parts of absent ones, and a whole-page
// zero write or trim frees the page it covers.
func TestMemStoreHoldsOnlyNonZeroPages(t *testing.T) {
	for _, bs := range []uint32{512, 4096} {
		s := NewMemStore(bs)
		pb := uint64(pageBytes / bs)
		zeros, data := make([]byte, pageBytes), bytes.Repeat([]byte{0x5a}, pageBytes)
		s.WriteBlocks(pb, zeros)
		s.WriteBlocks(3*pb-1, zeros) // at 512 B blocks, straddles two absent pages
		if s.residentPages() != 0 {
			t.Fatalf("bs %d: all-zero writes left %d pages, want 0", bs, s.residentPages())
		}
		s.WriteBlocks(pb, data)
		s.WriteBlocks(4*pb, data)
		if s.residentPages() != 2 {
			t.Fatalf("bs %d: two page writes left %d pages, want 2", bs, s.residentPages())
		}
		s.WriteBlocks(pb, zeros)
		if _, p := s.page(1); p != nil || s.residentPages() != 1 {
			t.Fatalf("bs %d: a whole-page zero write kept its page (%d resident)", bs, s.residentPages())
		}
		s.TrimBlocks(4*pb, uint32(pb))
		if s.residentPages() != 0 {
			t.Fatalf("bs %d: a whole-page trim kept its page (%d resident)", bs, s.residentPages())
		}
	}
}
