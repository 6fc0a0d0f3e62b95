// Package integrity implements end-to-end data integrity for the NVMetro
// data path: per-block protection information (PI) stamped on the write
// path at the mediation point and verified at every trust boundary, a
// quarantine set that turns unrepairable silent corruption into honest
// media errors, and a rate-limited background scrubber that cross-checks
// PI and primary-vs-replica content and repairs divergence through the
// resync engine.
//
// The design is the software analogue of NVMe end-to-end protection
// (T10 PI): the router is the one component every guest I/O traverses, so
// stamping there and verifying at each hop bounds where corruption can
// hide. A PI record carries the block's payload CRC plus a generation tag
// (which write stamped it) — CRC mismatch detects bit rot, torn writes
// and misdirected overwrites; a stale generation with a matching old CRC
// is how lost writes on one mirror leg show up during a scrub
// cross-check.
package integrity

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"sort"

	"nvmetro/internal/metrics"
	"nvmetro/internal/storfn"
)

// record is the protection information for one logical block.
type record struct {
	CRC uint32 // payload CRC32 (IEEE), same polynomial as MemStore.ContentCRC
	Gen uint64 // generation of the stamping write (monotonic per domain)
}

// pageBlocks is how many consecutive blocks' records one PI page holds: a
// 4 KiB-aligned run of 512 B blocks, the unit guests write in, so pages fill
// whole and an aligned 4 KiB verify is one lookup.
const pageBlocks = 8

// piPage holds the records of blocks [n*pageBlocks, (n+1)*pageBlocks) for
// its page number n; bit i of has says block i of the page holds one.
type piPage struct {
	has  uint64
	recs [pageBlocks]record
}

// Domain is the PI table for one mediated device: the authoritative
// expected content of every stamped block, shared by every boundary guard
// on the device's primary and replica paths (a mirror's legs hold the
// same logical bytes, so they share one expectation). It also owns the
// quarantine set: ranges whose content is known bad and unrepairable,
// which must fail guest reads instead of returning wrong data.
//
// Records live in pages keyed by page number (see piPage), and every walk
// over consecutive blocks looks each page up once (see cursor).
//
// The domain is driven synchronously from simulation events under the
// run token, so — like the rest of the stack — it needs no locking and
// evolves deterministically from the I/O sequence.
type Domain struct {
	blockSize uint32
	shift     uint8
	zeroCRC   uint32 // CRC of one all-zero block (StampZeroes)
	gen       uint64
	pages     map[uint64]*piPage
	stamped   uint64 // blocks holding a record
	quar      storfn.DirtyRegions

	guards []*Guard
}

// NewDomain creates a PI domain for the given logical block size, which
// must be a power of two.
func NewDomain(blockSize uint32) (*Domain, error) {
	if blockSize == 0 || bits.OnesCount32(blockSize) != 1 {
		return nil, fmt.Errorf("integrity: block size %d not a power of two", blockSize)
	}
	return &Domain{
		blockSize: blockSize,
		shift:     uint8(bits.TrailingZeros32(blockSize)),
		zeroCRC:   crc32.ChecksumIEEE(make([]byte, blockSize)),
		pages:     make(map[uint64]*piPage),
	}, nil
}

// Guard creates a named boundary guard sharing this domain's PI table.
// The name keys the guard's counters in Collect.
func (d *Domain) Guard(name string) *Guard {
	g := &Guard{d: d, name: name}
	d.guards = append(d.guards, g)
	return g
}

// Stamp records PI for the blocks of data starting at lba. All blocks of
// one stamp share a generation. A full overwrite supersedes whatever was
// there before, so stamping also lifts any quarantine on the range: the
// old bad content is gone.
func (d *Domain) Stamp(lba uint64, data []byte) {
	d.gen++
	bs := int(d.blockSize)
	blocks := uint64(len(data) / bs)
	var pg *piPage
	for i := uint64(0); i < blocks; i++ {
		off := int(i) * bs
		pg = d.store(pg, lba+i, record{CRC: crc32.ChecksumIEEE(data[off : off+bs]), Gen: d.gen})
	}
	d.quar.Remove(lba, blocks)
}

// StampZeroes is Stamp of blocks all-zero blocks at lba (Write Zeroes)
// without materialising them: every record carries the domain's zero-block
// CRC, so no buffer the length of the guest's range is ever allocated.
func (d *Domain) StampZeroes(lba, blocks uint64) {
	d.gen++
	var pg *piPage
	for i := uint64(0); i < blocks; i++ {
		pg = d.store(pg, lba+i, record{CRC: d.zeroCRC, Gen: d.gen})
	}
	d.quar.Remove(lba, blocks)
}

// store writes r as block lba's record. pg is the page the previous block of
// the run went to (nil for the first): it is looked up, and created, only
// when lba starts a page or the run. It returns the page for the next block.
func (d *Domain) store(pg *piPage, lba uint64, r record) *piPage {
	i := lba % pageBlocks
	if pg == nil || i == 0 {
		if pg = d.pages[lba/pageBlocks]; pg == nil {
			pg = new(piPage)
			d.pages[lba/pageBlocks] = pg
		}
	}
	if pg.has&(1<<i) == 0 {
		pg.has |= 1 << i
		d.stamped++
	}
	pg.recs[i] = r
	return pg
}

// cursor reads the records of a run of consecutive blocks, looking each page
// up once whether or not it exists: most guarded reads land on blocks nobody
// stamped, and a missing page must not cost a probe per block.
type cursor struct {
	d      *Domain
	key    uint64  // page number of pg
	pg     *piPage // nil when page key holds no record
	looked bool    // key and pg are valid
}

// record returns block lba's record.
func (c *cursor) record(lba uint64) (record, bool) {
	if k := lba / pageBlocks; !c.looked || k != c.key {
		c.key, c.pg, c.looked = k, c.d.pages[k], true
	}
	i := lba % pageBlocks
	if c.pg == nil || c.pg.has&(1<<i) == 0 {
		return record{}, false
	}
	return c.pg.recs[i], true
}

// checks reports whether block matches its record; a block without one
// passes.
func (c *cursor) checks(lba uint64, block []byte) bool {
	r, ok := c.record(lba)
	return !ok || r.CRC == crc32.ChecksumIEEE(block)
}

// Record returns the PI record for one block.
func (d *Domain) Record(lba uint64) (record, bool) {
	c := cursor{d: d}
	return c.record(lba)
}

// VerifyBlock checks a single block's payload against its record.
func (d *Domain) VerifyBlock(lba uint64, block []byte) bool {
	c := cursor{d: d}
	return c.checks(lba, block)
}

// Stamped returns the number of blocks holding PI records.
func (d *Domain) Stamped() uint64 { return d.stamped }

// StampedRanges returns the stamped extents, sorted and coalesced — the
// scrubber's walk list. Only stamped blocks can be scrubbed: an unstamped
// block has no expectation to check against.
func (d *Domain) StampedRanges() []storfn.Range {
	keys := make([]uint64, 0, len(d.pages))
	for k := range d.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []storfn.Range
	for _, k := range keys {
		for has := d.pages[k].has; has != 0; has &= has - 1 {
			lba := k*pageBlocks + uint64(bits.TrailingZeros64(has))
			if n := len(out); n > 0 && out[n-1].LBA+out[n-1].Blocks == lba {
				out[n-1].Blocks++
				continue
			}
			out = append(out, storfn.Range{LBA: lba, Blocks: 1})
		}
	}
	return out
}

// quarantine marks [lba, lba+blocks) unrepairable: guest reads covering
// any part of it must fail with a media error instead of serving data
// that cannot be trusted.
func (d *Domain) quarantine(lba, blocks uint64) { d.quar.Add(lba, blocks) }

// unquarantine lifts the quarantine on [lba, lba+blocks).
func (d *Domain) unquarantine(lba, blocks uint64) { d.quar.Remove(lba, blocks) }

// Quarantined reports whether any block of [lba, lba+blocks) is
// quarantined.
func (d *Domain) Quarantined(lba, blocks uint64) bool {
	for i := uint64(0); i < blocks; i++ {
		if d.quar.Contains(lba + i) {
			return true
		}
	}
	return false
}

// QuarantinedBlocks returns the total number of quarantined blocks.
func (d *Domain) QuarantinedBlocks() uint64 { return d.quar.Blocks() }

// QuarantineRanges returns the quarantined extents in LBA order.
func (d *Domain) QuarantineRanges() []storfn.Range { return d.quar.Ranges() }

// Collect exports the domain's gauges and every guard's counters under
// the "pi." prefix, guards sorted by name for a stable schema.
func (d *Domain) Collect(cs *metrics.CounterSet) {
	cs.Add("pi.stamped", d.Stamped())
	cs.Add("pi.quarantined", d.QuarantinedBlocks())
	names := make([]string, len(d.guards))
	byName := make(map[string]*Guard, len(d.guards))
	for i, g := range d.guards {
		names[i] = g.name
		byName[g.name] = g
	}
	sort.Strings(names)
	for _, n := range names {
		g := byName[n]
		cs.Add("pi."+n+".stamped", g.Stamped)
		cs.Add("pi."+n+".ok", g.OK)
		cs.Add("pi."+n+".bad", g.Bad)
	}
}

// Guard is one trust boundary's view of a domain: Verify/Stamp plus
// per-boundary counters, so a failed check is attributable to the hop
// that caught it (blockdev completion, cache fill, replica receive, ...).
type Guard struct {
	d    *Domain
	name string

	Stamped uint64 // blocks stamped through this guard
	OK      uint64 // verified blocks that passed
	Bad     uint64 // verified blocks that failed
}

// Stamp records PI for data at lba through this boundary.
func (g *Guard) Stamp(lba uint64, data []byte) {
	if g == nil {
		return
	}
	g.Stamped += uint64(len(data)) >> g.d.shift
	g.d.Stamp(lba, data)
}

// StampZeroes records PI for blocks zeroed blocks at lba through this
// boundary.
func (g *Guard) StampZeroes(lba, blocks uint64) {
	if g == nil {
		return
	}
	g.Stamped += blocks
	g.d.StampZeroes(lba, blocks)
}

// Verify checks data at lba against the domain, counting per block.
func (g *Guard) Verify(lba uint64, data []byte) bool {
	if g == nil {
		return true
	}
	bs := int(g.d.blockSize)
	ok := true
	c := cursor{d: g.d}
	for i := 0; i+bs <= len(data); i += bs {
		if c.checks(lba, data[i:i+bs]) {
			g.OK++
		} else {
			g.Bad++
			ok = false
		}
		lba++
	}
	return ok
}

// Quarantined reports whether any block of the range is quarantined.
func (g *Guard) Quarantined(lba, blocks uint64) bool {
	if g == nil {
		return false
	}
	return g.d.Quarantined(lba, blocks)
}

// SectorGuard adapts a guard to a sector-addressed boundary (blockdev
// Bios, NVMe-oF captures): it translates a 512-byte sector number into
// the device-absolute LBA the domain is keyed by. Partial-block extents
// (possible only when the device block size exceeds the sector size and
// the I/O is misaligned) pass unverified rather than guessing.
type SectorGuard struct {
	G    *Guard
	Base uint64 // device-absolute LBA of sector 0
	Size uint32 // bytes per sector (blockdev.SectorSize)
}

// VerifySectors checks data at the given sector against the guard's
// domain.
func (s *SectorGuard) VerifySectors(sector uint64, data []byte) bool {
	if s == nil || s.G == nil {
		return true
	}
	off := sector * uint64(s.Size)
	if off&uint64(s.G.d.blockSize-1) != 0 {
		return true
	}
	return s.G.Verify(s.Base+(off>>s.G.d.shift), data)
}
