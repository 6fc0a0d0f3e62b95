package integrity

import (
	"hash/fnv"
	"math/rand"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
)

// CorruptingStore wraps a device.Store and injects silent data corruption
// below the device model: every store operation draws a decision from its
// own fault-injector site, so a fixed plan seed yields a fixed corruption
// trace regardless of what the device's completion-path injector does.
//
// Corruption is silent by construction — the wrapped operation still
// "succeeds" and the device completes the command OK. What each kind
// persists:
//
//   - BitRot fires on a read: one pseudo-random bit of the read range is
//     flipped in the backing store (the rot is persistent, not transient)
//     and the corrupted data is returned.
//   - TornWrite persists only the first half of the payload; the tail
//     keeps its old content (a power cut mid-transfer).
//   - MisdirectedWrite lands the payload at a pseudo-random wrong LBA,
//     leaving the addressed blocks stale and clobbering an unrelated
//     range.
//   - LostWrite acknowledges the write without persisting anything.
type CorruptingStore struct {
	inner     device.Store
	inj       *fault.Injector
	geo       *rand.Rand // corruption geometry (bit position, wrong LBA)
	blockSize uint32
	blocks    uint64 // capacity, for picking misdirect targets

	// Stats
	BitRots     uint64
	TornWrites  uint64
	Misdirected uint64
	LostWrites  uint64
}

// NewCorruptingStore wraps inner with corruption drawn from plan at the
// given injection site. The geometry stream (which bit, which wrong LBA)
// is seeded from (plan seed, site) independently of the decision stream,
// so adding rules never shifts where existing corruptions land.
func NewCorruptingStore(inner device.Store, plan *fault.Plan, site string, blockSize uint32, blocks uint64) *CorruptingStore {
	h := fnv.New64a()
	h.Write([]byte(site + "/geometry"))
	return &CorruptingStore{
		inner:     inner,
		inj:       plan.Injector(site),
		geo:       rand.New(rand.NewSource(plan.Seed ^ int64(h.Sum64()))),
		blockSize: blockSize,
		blocks:    blocks,
	}
}

// Injector returns the store's fault injector (for counter export).
func (s *CorruptingStore) Injector() *fault.Injector { return s.inj }

// ReadBlocks reads from the wrapped store, possibly rotting a bit first.
func (s *CorruptingStore) ReadBlocks(lba uint64, buf []byte) {
	if d := s.inj.Decide(fault.ClassRead); d.HasCorrupt && d.Corrupt == fault.BitRot && len(buf) > 0 {
		s.BitRots++
		bit := s.geo.Intn(len(buf) * 8)
		// Persist the flip: read the victim block, rot it, write it back.
		victim := lba + uint64(bit/8)/uint64(s.blockSize)
		blk := make([]byte, s.blockSize)
		s.inner.ReadBlocks(victim, blk)
		inBlk := bit - int(victim-lba)*int(s.blockSize)*8
		blk[inBlk/8] ^= 1 << (inBlk % 8)
		s.inner.WriteBlocks(victim, blk)
	}
	s.inner.ReadBlocks(lba, buf)
}

// WriteBlocks writes to the wrapped store, possibly tearing, misdirecting
// or losing the write.
func (s *CorruptingStore) WriteBlocks(lba uint64, buf []byte) {
	d := s.inj.Decide(fault.ClassWrite)
	if !d.HasCorrupt {
		s.inner.WriteBlocks(lba, buf)
		return
	}
	switch d.Corrupt {
	case fault.TornWrite:
		s.TornWrites++
		bs := int(s.blockSize)
		if cut := len(buf) / 2 / bs * bs; cut > 0 {
			s.inner.WriteBlocks(lba, buf[:cut])
		} else {
			// Single-block write: tear inside the block — new head,
			// old tail.
			blk := make([]byte, bs)
			s.inner.ReadBlocks(lba, blk)
			copy(blk, buf[:bs/2])
			s.inner.WriteBlocks(lba, blk)
		}
	case fault.MisdirectedWrite:
		s.Misdirected++
		nb := uint64(len(buf)) / uint64(s.blockSize)
		wrong := lba
		if s.blocks > nb {
			for tries := 0; tries < 8; tries++ {
				wrong = uint64(s.geo.Int63n(int64(s.blocks - nb + 1)))
				if wrong+nb <= lba || wrong >= lba+nb {
					break
				}
			}
		}
		s.inner.WriteBlocks(wrong, buf)
	case fault.LostWrite:
		s.LostWrites++
	default:
		s.inner.WriteBlocks(lba, buf)
	}
}

// TrimBlocks passes through.
func (s *CorruptingStore) TrimBlocks(lba uint64, blocks uint32) {
	s.inner.TrimBlocks(lba, blocks)
}
