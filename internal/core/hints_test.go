package core

import (
	"encoding/binary"
	"testing"
)

func TestHotHintsHeatAndBuckets(t *testing.T) {
	h := NewHotHints(3, 16) // 8-block buckets
	if heat(h, 0) != 0 {
		t.Fatal("untracked bucket should read 0")
	}
	setHot(h, 5, 7) // bucket 0
	if heat(h, 0) != 7 || heat(h, 7) != 7 {
		t.Fatal("all LBAs of a bucket share its heat")
	}
	if heat(h, 8) != 0 {
		t.Fatal("next bucket must be independent")
	}
	if h.Bucket(17) != 2 {
		t.Fatalf("bucket(17)=%d, want 2", h.Bucket(17))
	}
	setHot(h, 16, 3)
	if h.m.Len() != 2 {
		t.Fatalf("buckets=%d, want 2", h.m.Len())
	}
	h.Forget(5)
	if heat(h, 0) != 0 || h.m.Len() != 1 {
		t.Fatal("forget did not drop the bucket")
	}
}

func TestHotHintsFullMapKeepsExisting(t *testing.T) {
	h := NewHotHints(0, 2)
	setHot(h, 1, 5)
	setHot(h, 2, 5)
	setHot(h, 3, 9) // map full: dropped, like the classifier's update
	if heat(h, 3) != 0 {
		t.Fatal("full map admitted a new bucket")
	}
	setHot(h, 1, 9) // existing bucket still updatable
	if heat(h, 1) != 9 {
		t.Fatal("full map refused an existing-bucket update")
	}
}

// heat returns the access count recorded for lba's bucket.
func heat(h *HotHints, lba uint64) uint64 {
	v := h.m.Lookup(u64key(h.Bucket(lba)))
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// setHot forces lba's bucket to count; a full map keeps its existing
// buckets, as the classifier's update does.
func setHot(h *HotHints, lba, count uint64) {
	var val [8]byte
	binary.LittleEndian.PutUint64(val[:], count)
	_ = h.m.Update(u64key(h.Bucket(lba)), val[:])
}
