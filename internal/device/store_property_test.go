package device

import (
	"bytes"
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
// chunks (via write-then-trim or explicit zero writes) that the other
// never touched.
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

	// Materialize extra chunks in dense only, with content that is logically
	// zero: explicit zero writes, and write-then-partial-trim back to zero.
	zeros := make([]byte, chunkBlocks*512)
	dense.WriteBlocks(1500, zeros) // chunk-straddling zero write
	junk := make([]byte, 32*512)
	rng.Read(junk)
	dense.WriteBlocks(1800, junk)
	dense.TrimBlocks(1800, 32) // sub-chunk trim: zeroed in place, chunk stays resident

	if len(sparse.chunks) == len(dense.chunks) {
		t.Fatal("test vacuous: dense did not materialize extra chunks")
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
