package integrity

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nvmetro/internal/storfn"
)

// refDomain is the PI table as one map entry per block, with what a guard
// counts: the reference the paged Domain is held to.
type refDomain struct {
	bs      int
	zeroCRC uint32
	gen     uint64
	pi      map[uint64]record
	ok, bad uint64
}

func (r *refDomain) stamp(lba uint64, data []byte) {
	r.gen++
	for i := 0; i+r.bs <= len(data); i += r.bs {
		r.pi[lba] = record{CRC: crc32.ChecksumIEEE(data[i : i+r.bs]), Gen: r.gen}
		lba++
	}
}

func (r *refDomain) stampZeroes(lba, blocks uint64) {
	r.gen++
	for i := uint64(0); i < blocks; i++ {
		r.pi[lba+i] = record{CRC: r.zeroCRC, Gen: r.gen}
	}
}

func (r *refDomain) verifyBlock(lba uint64, block []byte) bool {
	rec, ok := r.pi[lba]
	return !ok || rec.CRC == crc32.ChecksumIEEE(block)
}

func (r *refDomain) verify(lba uint64, data []byte) bool {
	for i := 0; i+r.bs <= len(data); i += r.bs {
		if !r.verifyBlock(lba, data[i:i+r.bs]) {
			return false
		}
		lba++
	}
	return true
}

func (r *refDomain) guardVerify(lba uint64, data []byte) bool {
	ok := true
	for i := 0; i+r.bs <= len(data); i += r.bs {
		if r.verifyBlock(lba, data[i:i+r.bs]) {
			r.ok++
		} else {
			r.bad++
			ok = false
		}
		lba++
	}
	return ok
}

func (r *refDomain) ranges() []storfn.Range {
	lbas := make([]uint64, 0, len(r.pi))
	for lba := range r.pi {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	var out []storfn.Range
	for _, lba := range lbas {
		if n := len(out); n > 0 && out[n-1].LBA+out[n-1].Blocks == lba {
			out[n-1].Blocks++
			continue
		}
		out = append(out, storfn.Range{LBA: lba, Blocks: 1})
	}
	return out
}

// TestPagedPIMatchesReference runs random Stamp, StampZeroes, Verify,
// Guard.Verify, VerifyBlock, Record, Stamped and StampedRanges calls against
// a paged Domain and the per-block reference, over extents that straddle page
// boundaries, at two block sizes. Every result and the guard's OK/Bad counters
// must agree. Reads carry what the blocks were last stamped with, one flipped
// byte now and then, or bytes nobody stamped.
func TestPagedPIMatchesReference(t *testing.T) {
	for _, blockSize := range []int{512, 4096} {
		t.Run(fmt.Sprintf("bs=%d", blockSize), func(t *testing.T) {
			d, err := NewDomain(uint32(blockSize))
			if err != nil {
				t.Fatal(err)
			}
			g := d.Guard("ref")
			ref := &refDomain{bs: blockSize, zeroCRC: d.zeroCRC, pi: make(map[uint64]record)}
			content := make(map[uint64][]byte) // what each block was last stamped with
			rng := rand.New(rand.NewSource(int64(blockSize)))
			// Two regions: low LBAs and one near the top of the space, so page
			// numbers are not small integers only.
			extent := func() (uint64, uint64) {
				lba := uint64(rng.Intn(6 * pageBlocks))
				if rng.Intn(4) == 0 {
					lba += 1<<63 - 3*pageBlocks
				}
				return lba, uint64(1 + rng.Intn(3*pageBlocks))
			}
			payload := func(lba, blocks uint64) []byte {
				buf := make([]byte, int(blocks)*blockSize)
				rng.Read(buf)
				if rng.Intn(4) != 0 {
					for i := uint64(0); i < blocks; i++ {
						if c, ok := content[lba+i]; ok {
							copy(buf[int(i)*blockSize:], c)
						}
					}
					if rng.Intn(3) == 0 {
						buf[rng.Intn(len(buf))] ^= 1 << rng.Intn(8)
					}
				}
				return buf
			}
			straddled, verified := 0, 0
			for step := 0; step < 4000; step++ {
				lba, blocks := extent()
				if lba/pageBlocks != (lba+blocks-1)/pageBlocks {
					straddled++
				}
				what := ""
				switch rng.Intn(7) {
				case 0:
					what = "Stamp"
					data := make([]byte, int(blocks)*blockSize)
					rng.Read(data)
					d.Stamp(lba, data)
					ref.stamp(lba, data)
					for i := uint64(0); i < blocks; i++ {
						content[lba+i] = data[int(i)*blockSize : int(i+1)*blockSize]
					}
				case 1:
					what = "StampZeroes"
					d.StampZeroes(lba, blocks)
					ref.stampZeroes(lba, blocks)
					for i := uint64(0); i < blocks; i++ {
						content[lba+i] = make([]byte, blockSize)
					}
				case 2:
					what = "Verify"
					data := payload(lba, blocks)
					if got, want := d.Verify(lba, data), ref.verify(lba, data); got != want {
						t.Fatalf("step %d: Verify(%d, %d blocks) = %v, reference %v", step, lba, blocks, got, want)
					}
				case 3:
					what = "Guard.Verify"
					data := payload(lba, blocks)
					got, want := g.Verify(lba, data), ref.guardVerify(lba, data)
					if got != want || g.OK != ref.ok || g.Bad != ref.bad {
						t.Fatalf("step %d: Guard.Verify(%d, %d blocks) = %v ok=%d bad=%d, reference %v ok=%d bad=%d",
							step, lba, blocks, got, g.OK, g.Bad, want, ref.ok, ref.bad)
					}
					verified++
				case 4:
					what = "VerifyBlock"
					block := payload(lba, 1)
					if got, want := d.VerifyBlock(lba, block), ref.verifyBlock(lba, block); got != want {
						t.Fatalf("step %d: VerifyBlock(%d) = %v, reference %v", step, lba, got, want)
					}
				case 5:
					what = "Record"
					for i := uint64(0); i < blocks; i++ {
						got, gok := d.Record(lba + i)
						want, wok := ref.pi[lba+i]
						if got != want || gok != wok {
							t.Fatalf("step %d: Record(%d) = %v %v, reference %v %v", step, lba+i, got, gok, want, wok)
						}
					}
				case 6:
					what = "StampedRanges"
					if got, want := d.StampedRanges(), ref.ranges(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: StampedRanges() = %v, reference %v", step, got, want)
					}
				}
				if got, want := d.Stamped(), uint64(len(ref.pi)); got != want {
					t.Fatalf("step %d, after %s: Stamped() = %d, reference %d", step, what, got, want)
				}
			}
			if straddled < 1000 || verified < 300 || ref.bad == 0 || ref.ok == 0 {
				t.Fatalf("weak run: %d extents straddled a page, %d guard verifies, %d ok, %d bad", straddled, verified, ref.ok, ref.bad)
			}
		})
	}
}

// BenchmarkGuardVerify4K is a guarded 4 KiB read's PI check at 512 B blocks,
// against a table with every other 4 KiB extent of 64 MiB stamped: over
// stamped blocks (eight CRCs) and over blocks nobody stamped (lookups only,
// the common case for reads of a cloned image).
func BenchmarkGuardVerify4K(b *testing.B) {
	const extents = 1 << 13
	d, _ := NewDomain(512)
	g := d.Guard("bench")
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	for i := uint64(0); i < extents; i++ {
		d.Stamp(i*16, data)
	}
	for _, tc := range []struct {
		name string
		base uint64
	}{{"stamped", 0}, {"unstamped", 8}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !g.Verify(tc.base+uint64(i%extents)*16, data) {
					b.Fatal("an untouched extent failed verification")
				}
			}
		})
	}
}
