package core

import (
	"encoding/binary"

	"nvmetro/internal/ebpf"
)

// HotHints wraps the cache classifier's heat map: LBA-bucket keys to access
// counts, bumped by the classifier on every read and consulted to decide
// whether a read is hot enough for the notify-path cache UIF. The host side
// uses this wrapper to retire buckets without touching eBPF byte encoding at
// call sites.
//
// Keys are little-endian uint64 bucket numbers (LBA >> bucketShift), values
// little-endian uint64 counts — the exact layout the classifier's
// map_lookup_elem/map_update_elem calls operate on.
type HotHints struct {
	m           *ebpf.HashMap
	bucketShift uint8
}

// NewHotHints builds a heat map with room for maxBuckets tracked buckets.
func NewHotHints(bucketShift uint8, maxBuckets int) *HotHints {
	return &HotHints{m: ebpf.NewHashMap(8, 8, maxBuckets), bucketShift: bucketShift}
}

// Map exposes the underlying eBPF map for classifier wiring.
func (h *HotHints) Map() *ebpf.HashMap { return h.m }

// BucketShift returns log2 of the blocks-per-bucket granularity.
func (h *HotHints) BucketShift() uint8 { return h.bucketShift }

// Bucket maps an LBA to its bucket number.
func (h *HotHints) Bucket(lba uint64) uint64 { return lba >> h.bucketShift }

func u64key(v uint64) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], v)
	return k[:]
}

// Forget drops lba's bucket so its heat accumulates from zero again, e.g.
// after the cached range was evicted or invalidated.
func (h *HotHints) Forget(lba uint64) { h.m.Delete(u64key(h.Bucket(lba))) }
