package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveBacking is the reference model: the committed contents of the backing
// store, one block per key. A cache hit may only ever return the current
// committed backing contents, and never while a write window over the range
// is open. Write windows stay in inFlt from BeginWrite to EndWrite; the
// backend commit happens at a random point in between, so overlapping
// windows can commit in a different order than they close.
type naiveBacking struct {
	bs    int
	data  map[uint64][]byte
	inFlt map[uint64]*pendingWrite // open write windows by handle
}

type pendingWrite struct {
	lba, blocks uint64
	payload     []byte
	committed   bool // backend write already landed (window may still be open)
}

func newNaiveBacking(bs int) *naiveBacking {
	return &naiveBacking{bs: bs, data: make(map[uint64][]byte), inFlt: make(map[uint64]*pendingWrite)}
}

func (m *naiveBacking) committed(lba uint64) []byte {
	if d, ok := m.data[lba]; ok {
		return d
	}
	return make([]byte, m.bs) // unwritten blocks read as zeros
}

func (m *naiveBacking) read(lba, blocks uint64) []byte {
	out := make([]byte, 0, int(blocks)*m.bs)
	for b := uint64(0); b < blocks; b++ {
		out = append(out, m.committed(lba+b)...)
	}
	return out
}

func (m *naiveBacking) commit(w *pendingWrite) {
	for b := uint64(0); b < w.blocks; b++ {
		d := make([]byte, m.bs)
		copy(d, w.payload[int(b)*m.bs:])
		m.data[w.lba+b] = d
	}
}

func (m *naiveBacking) writePending(lba, blocks uint64) bool {
	for _, w := range m.inFlt {
		if lba < w.lba+w.blocks && w.lba < lba+blocks {
			return true
		}
	}
	return false
}

type openFill struct {
	id       uint64
	lba, nbl uint64
	snapshot []byte // backing contents captured when the backend read ran
}

// TestCacheCoherenceProperty drives random interleavings of reads, fills
// (begin / backend-read-snapshot / commit), writes (begin / backend-commit /
// end — three independently scheduled steps, so overlapping write windows
// coexist and backend commit order can differ from EndWrite order) and
// invalidations against the naive backing model, and checks after every
// operation that any cache hit returns exactly the committed backing
// contents and that no hit is served while a write overlapping the range is
// in flight. This is the property the storage function relies on: a write —
// including one racing an in-flight fill or another write — is never
// followed by a stale cached read.
func TestCacheCoherenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		trials  = 50
		opsPer  = 300
		domain  = 48 // block LBA space, small to force overlap
		maxSpan = 4
	)
	for _, wp := range []WritePolicy{WriteThrough, WriteAround} {
		for trial := 0; trial < trials; trial++ {
			cfg := Config{
				BlockSize:      8,
				CapacityBlocks: 32, // smaller than domain: evictions happen
				WritePolicy:    wp,
			}
			c := New(cfg)
			model := newNaiveBacking(int(cfg.BlockSize))
			var fills []openFill
			var writeIDs []uint64
			seq := byte(1)

			span := func() (uint64, uint64) {
				return uint64(rng.Intn(domain)), uint64(1 + rng.Intn(maxSpan))
			}
			for op := 0; op < opsPer; op++ {
				switch rng.Intn(12) {
				case 0, 1, 2: // guest read: probe cache, fill on miss
					lba, nbl := span()
					buf := make([]byte, int(nbl)*model.bs)
					if c.Read(lba, nbl, buf) {
						verifyHit(t, model, lba, nbl, buf, wp, trial, op)
					} else {
						f := c.BeginFill(lba, nbl)
						// The backend read happens at some point during
						// the window; snapshot now or later at random.
						of := openFill{id: f, lba: lba, nbl: nbl}
						if rng.Intn(2) == 0 {
							of.snapshot = model.read(lba, nbl)
						}
						fills = append(fills, of)
					}
				case 3: // commit a random open fill
					if len(fills) == 0 {
						continue
					}
					i := rng.Intn(len(fills))
					f := fills[i]
					fills = append(fills[:i], fills[i+1:]...)
					if f.snapshot == nil {
						f.snapshot = model.read(f.lba, f.nbl)
					}
					c.CommitFill(f.id, f.snapshot)
				case 4, 5: // begin a write
					lba, nbl := span()
					payload := bytes.Repeat([]byte{seq}, int(nbl)*model.bs)
					seq++
					w := c.BeginWrite(lba, nbl)
					model.inFlt[w] = &pendingWrite{lba: lba, blocks: nbl, payload: payload}
					writeIDs = append(writeIDs, w)
				case 6: // backend commit of a random open write (window stays open)
					if len(writeIDs) == 0 {
						continue
					}
					pw := model.inFlt[writeIDs[rng.Intn(len(writeIDs))]]
					if !pw.committed {
						model.commit(pw)
						pw.committed = true
					}
				case 7, 8: // close a random open write window
					if len(writeIDs) == 0 {
						continue
					}
					i := rng.Intn(len(writeIDs))
					w := writeIDs[i]
					writeIDs = append(writeIDs[:i], writeIDs[i+1:]...)
					pw := model.inFlt[w]
					delete(model.inFlt, w)
					if !pw.committed && rng.Intn(8) == 0 {
						c.EndWrite(w, nil) // backend write failed
					} else {
						if !pw.committed {
							model.commit(pw)
							pw.committed = true
						}
						c.EndWrite(w, pw.payload)
					}
				case 9: // external invalidation (e.g. kernel-path write)
					lba, nbl := span()
					payload := bytes.Repeat([]byte{seq}, int(nbl)*model.bs)
					seq++
					model.commit(&pendingWrite{lba: lba, blocks: nbl, payload: payload})
					c.Invalidate(lba, nbl)
				default: // re-read a recently written range
					lba, nbl := span()
					buf := make([]byte, int(nbl)*model.bs)
					if c.Read(lba, nbl, buf) {
						verifyHit(t, model, lba, nbl, buf, wp, trial, op)
					}
				}
				// Global invariant sweep: every resident block matches
				// committed backing unless a write over it is in flight
				// (in which case it must not be resident at all — the
				// write window invalidated it).
				for lba := uint64(0); lba < domain; lba++ {
					got := c.Peek(lba)
					if got == nil {
						continue
					}
					if model.writePending(lba, 1) {
						t.Fatalf("%v trial %d op %d: block %d resident under an open write window",
							wp, trial, op, lba)
					}
					if !bytes.Equal(got, model.committed(lba)) {
						t.Fatalf("%v trial %d op %d: block %d stale: cache %v backing %v",
							wp, trial, op, lba, got, model.committed(lba))
					}
				}
				if r := c.Resident(); r > int(cfg.CapacityBlocks) {
					t.Fatalf("%v trial %d op %d: resident %d exceeds capacity %d",
						wp, trial, op, r, cfg.CapacityBlocks)
				}
			}
		}
	}
}

func verifyHit(t *testing.T, model *naiveBacking, lba, nbl uint64, buf []byte, wp WritePolicy, trial, op int) {
	t.Helper()
	if model.writePending(lba, nbl) {
		t.Fatalf("%v trial %d op %d: hit on [%d,%d) while a write is in flight",
			wp, trial, op, lba, lba+nbl)
	}
	if want := model.read(lba, nbl); !bytes.Equal(buf, want) {
		t.Fatalf("%v trial %d op %d: stale hit on [%d,%d): got %v want %v",
			wp, trial, op, lba, lba+nbl, buf, want)
	}
}

// TestPolicyModelProperty checks the ARC policy against a naive reference
// model over random op sequences: Len never exceeds capacity, every reported
// eviction was resident, and the policy's resident set always equals the
// model's.
func TestPolicyModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(16)
		p := newARC(capacity)
		resident := make(map[uint64]bool)
		for op := 0; op < 400; op++ {
			key := uint64(rng.Intn(3 * capacity))
			switch rng.Intn(4) {
			case 0: // hit (may be on a non-resident key: must be a no-op)
				p.Hit(key)
			case 1: // remove
				p.Remove(key)
				delete(resident, key)
			default: // admit
				for _, ev := range p.Admit(key) {
					if !resident[ev] {
						t.Fatalf("cap=%d trial %d op %d: evicted non-resident key %d",
							capacity, trial, op, ev)
					}
					if ev == key {
						t.Fatalf("cap=%d trial %d op %d: evicted the key being admitted",
							capacity, trial, op)
					}
					delete(resident, ev)
				}
				resident[key] = true
			}
			if p.Len() != len(resident) {
				t.Fatalf("cap=%d trial %d op %d: policy Len %d, model %d",
					capacity, trial, op, p.Len(), len(resident))
			}
			if p.Len() > capacity {
				t.Fatalf("cap=%d trial %d op %d: Len %d exceeds capacity",
					capacity, trial, op, p.Len())
			}
		}
	}
}
