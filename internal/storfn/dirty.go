package storfn

import "sort"

// DirtyRegions tracks guest LBA ranges whose secondary copy is stale —
// writes that were acknowledged from the primary alone while the mirror
// leg was failing. The resync engine replays exactly these regions.
// Ranges are kept sorted, pairwise disjoint and coalesced (no two regions
// touch), so membership and insertion use binary search.
type DirtyRegions struct {
	regions []dirtyRegion
}

type dirtyRegion struct {
	lba, end uint64 // [lba, end)
}

// Range is one dirty extent, exported for resync drainers.
type Range struct {
	LBA    uint64
	Blocks uint64
}

// Add marks [lba, lba+blocks) dirty, merging with adjacent or overlapping
// regions. The insertion point is found by binary search; only regions
// that actually touch the new range are merged.
func (d *DirtyRegions) Add(lba uint64, blocks uint64) {
	if blocks == 0 {
		return
	}
	nr := dirtyRegion{lba: lba, end: lba + blocks}
	// First region that touches or follows nr: adjacency (end == lba)
	// merges, so the predicate is end >= lba.
	lo := sort.Search(len(d.regions), func(i int) bool { return d.regions[i].end >= nr.lba })
	hi := lo
	for hi < len(d.regions) && d.regions[hi].lba <= nr.end {
		if d.regions[hi].lba < nr.lba {
			nr.lba = d.regions[hi].lba
		}
		if d.regions[hi].end > nr.end {
			nr.end = d.regions[hi].end
		}
		hi++
	}
	if lo == hi { // no overlap: insert at lo
		d.regions = append(d.regions, dirtyRegion{})
		copy(d.regions[lo+1:], d.regions[lo:])
		d.regions[lo] = nr
		return
	}
	d.regions[lo] = nr
	d.regions = append(d.regions[:lo+1], d.regions[hi:]...)
}

// Remove clears [lba, lba+blocks), splitting any region it punches a hole
// into. The resync drainer removes a chunk before copying it, so a guest
// write racing the copy re-dirties exactly the overlap.
func (d *DirtyRegions) Remove(lba uint64, blocks uint64) {
	if blocks == 0 {
		return
	}
	end := lba + blocks
	// First region with any overlap (strict: adjacency is untouched).
	lo := sort.Search(len(d.regions), func(i int) bool { return d.regions[i].end > lba })
	hi := lo
	var frags []dirtyRegion // surviving fragments of clipped regions (≤ 2)
	for hi < len(d.regions) && d.regions[hi].lba < end {
		r := d.regions[hi]
		if r.lba < lba {
			frags = append(frags, dirtyRegion{lba: r.lba, end: lba})
		}
		if r.end > end {
			frags = append(frags, dirtyRegion{lba: end, end: r.end})
		}
		hi++
	}
	if lo == hi {
		return
	}
	d.regions = append(d.regions[:lo], append(frags, d.regions[hi:]...)...)
}

// Regions returns the number of coalesced dirty regions.
func (d *DirtyRegions) Regions() int { return len(d.regions) }

// Blocks returns the total number of dirty blocks.
func (d *DirtyRegions) Blocks() uint64 {
	var n uint64
	for _, r := range d.regions {
		n += r.end - r.lba
	}
	return n
}

// Contains reports whether block lba is dirty.
func (d *DirtyRegions) Contains(lba uint64) bool {
	i := sort.Search(len(d.regions), func(i int) bool { return d.regions[i].end > lba })
	return i < len(d.regions) && d.regions[i].lba <= lba
}

// NextChunk takes the first chunk of at most max blocks off the front of
// *rs, a snapshot such as Ranges returns; ok is false once *rs is empty.
func NextChunk(rs *[]Range, max uint64) (c Range, ok bool) {
	if len(*rs) == 0 {
		return Range{}, false
	}
	r := &(*rs)[0]
	c = Range{LBA: r.LBA, Blocks: min(r.Blocks, max)}
	if r.LBA, r.Blocks = r.LBA+c.Blocks, r.Blocks-c.Blocks; r.Blocks == 0 {
		*rs = (*rs)[1:]
	}
	return c, true
}

// Ranges returns a snapshot of the dirty extents in LBA order.
func (d *DirtyRegions) Ranges() []Range {
	out := make([]Range, len(d.regions))
	for i, r := range d.regions {
		out[i] = Range{LBA: r.lba, Blocks: r.end - r.lba}
	}
	return out
}
