package integrity

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/metrics"
)

const bs = 4096

func fill(b byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestDomainStampVerify(t *testing.T) {
	d, err := NewDomain(bs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDomain(3000); err == nil {
		t.Fatal("non-power-of-two block size accepted")
	}

	data := append(fill(0xAA, bs), fill(0xBB, bs)...)
	d.Stamp(10, data)
	if got := d.Stamped(); got != 2 {
		t.Fatalf("Stamped() = %d, want 2", got)
	}
	if !d.Verify(10, data) {
		t.Fatal("freshly stamped data does not verify")
	}
	if !d.VerifyBlock(11, data[bs:]) {
		t.Fatal("second block does not verify")
	}

	// Corrupt one byte: that block must fail, the other must pass.
	bad := append([]byte(nil), data...)
	bad[bs+7] ^= 0x40
	if d.Verify(10, bad) {
		t.Fatal("corrupted data verifies")
	}
	if !d.VerifyBlock(10, bad[:bs]) {
		t.Fatal("untouched block fails")
	}
	if d.VerifyBlock(11, bad[bs:]) {
		t.Fatal("corrupted block verifies")
	}

	// Unstamped blocks pass: no expectation, no verdict.
	if !d.Verify(1000, bad) {
		t.Fatal("unstamped range fails verification")
	}

	// Re-stamping advances the generation and replaces the expectation.
	r0, _ := d.Record(11)
	d.Stamp(11, bad[bs:])
	r1, ok := d.Record(11)
	if !ok || r1.Gen <= r0.Gen {
		t.Fatalf("generation did not advance: %d -> %d", r0.Gen, r1.Gen)
	}
	if !d.VerifyBlock(11, bad[bs:]) {
		t.Fatal("re-stamped block does not verify")
	}
}

func TestDomainStampedRanges(t *testing.T) {
	d, _ := NewDomain(bs)
	blk := fill(1, bs)
	for _, lba := range []uint64{7, 5, 6, 20, 100, 101} {
		d.Stamp(lba, blk)
	}
	got := d.StampedRanges()
	want := []struct{ lba, blocks uint64 }{{5, 3}, {20, 1}, {100, 2}}
	if len(got) != len(want) {
		t.Fatalf("StampedRanges() = %v, want 3 ranges", got)
	}
	for i, w := range want {
		if got[i].LBA != w.lba || got[i].Blocks != w.blocks {
			t.Fatalf("range %d = {%d,%d}, want {%d,%d}", i, got[i].LBA, got[i].Blocks, w.lba, w.blocks)
		}
	}
}

func TestDomainQuarantine(t *testing.T) {
	d, _ := NewDomain(bs)
	d.Quarantine(10, 4)
	if !d.Quarantined(12, 1) || !d.Quarantined(8, 3) {
		t.Fatal("quarantined range not detected")
	}
	if d.Quarantined(14, 2) || d.Quarantined(0, 10) {
		t.Fatal("clean range reported quarantined")
	}
	if got := d.QuarantinedBlocks(); got != 4 {
		t.Fatalf("QuarantinedBlocks() = %d, want 4", got)
	}
	d.Unquarantine(11, 1)
	if d.Quarantined(11, 1) || !d.Quarantined(10, 1) || !d.Quarantined(12, 2) {
		t.Fatal("partial unquarantine wrong")
	}
	// A full overwrite through Stamp lifts the quarantine: the bad
	// content is gone.
	d.Stamp(12, fill(9, 2*bs))
	if d.Quarantined(12, 2) {
		t.Fatal("stamp did not lift quarantine")
	}
	if !d.Quarantined(10, 1) {
		t.Fatal("stamp lifted quarantine outside its range")
	}
}

func TestGuardCounters(t *testing.T) {
	d, _ := NewDomain(bs)
	g := d.Guard("test")
	data := fill(3, 2*bs)
	g.Stamp(5, data)
	if g.Stamped != 2 {
		t.Fatalf("Stamped = %d, want 2", g.Stamped)
	}
	if !g.Verify(5, data) || g.OK != 2 || g.Bad != 0 {
		t.Fatalf("clean verify: OK=%d Bad=%d", g.OK, g.Bad)
	}
	data[0] ^= 1
	if g.Verify(5, data) || g.Bad != 1 || g.OK != 3 {
		t.Fatalf("dirty verify: OK=%d Bad=%d", g.OK, g.Bad)
	}

	// nil guard is a no-op pass-through.
	var nilG *Guard
	nilG.Stamp(0, data)
	if !nilG.Verify(0, data) || nilG.Quarantined(0, 1) {
		t.Fatal("nil guard not permissive")
	}

	var cs metrics.CounterSet
	d.Collect(&cs)
	names := cs.Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, k := range []string{"pi.stamped", "pi.test.stamped", "pi.test.ok", "pi.test.bad"} {
		if !have[k] {
			t.Fatalf("Collect missing %q", k)
		}
	}
	if cs.Get("pi.test.bad") != 1 {
		t.Fatalf("pi.test.bad = %d, want 1", cs.Get("pi.test.bad"))
	}
}

// TestStampZeroesMatchesStampOfZeros: a Write Zeroes stamp leaves exactly the
// PI records, Stamped counts and quarantine that stamping a materialised
// zero buffer did, and costs no allocation even at the largest range a guest
// can name (NLB 65536 at 512-byte blocks: the old path's 32 MiB buffer).
func TestStampZeroesMatchesStampOfZeros(t *testing.T) {
	const blockSize, blocks, lba = 512, 65536, 1000
	oldD, _ := NewDomain(blockSize)
	newD, _ := NewDomain(blockSize)
	oldG, newG := oldD.Guard("guest"), newD.Guard("guest")
	for _, g := range []*Guard{oldG, newG} {
		g.Stamp(lba+5, fill(0x5a, 3*blockSize)) // earlier contents to supersede
		g.d.Quarantine(lba+blocks-2, 4)         // straddles the range's end
	}
	oldG.Stamp(lba, make([]byte, blocks*blockSize))
	newG.StampZeroes(lba, blocks)
	if oldG.Stamped != newG.Stamped || oldD.Stamped() != newD.Stamped() {
		t.Fatalf("Stamped %d/%d blocks, want %d/%d", newG.Stamped, newD.Stamped(), oldG.Stamped, oldD.Stamped())
	}
	for b := uint64(lba - 1); b <= lba+blocks+2; b++ {
		want, wok := oldD.Record(b)
		got, ok := newD.Record(b)
		if got != want || ok != wok {
			t.Fatalf("block %d: record %+v (%v), want %+v (%v)", b, got, ok, want, wok)
		}
	}
	if got, want := newD.QuarantineRanges(), oldD.QuarantineRanges(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("quarantine %v, want %v", got, want)
	}
	if !newD.Verify(lba, make([]byte, 8*blockSize)) {
		t.Fatal("zeroed blocks do not verify as zeros")
	}
	if n := testing.AllocsPerRun(5, func() { newG.StampZeroes(lba, blocks) }); n != 0 {
		t.Fatalf("StampZeroes of %d blocks: %.0f allocations, want 0", blocks, n)
	}
}

func TestSectorGuard(t *testing.T) {
	d, _ := NewDomain(bs)
	g := d.Guard("sector")
	data := fill(7, bs)
	d.Stamp(40, data) // device-absolute LBA 40

	sg := &SectorGuard{G: g, Base: 0, Size: 512}
	sector := uint64(40) * (bs / 512)
	if !sg.VerifySectors(sector, data) {
		t.Fatal("aligned sector read fails")
	}
	data[0] ^= 1
	if sg.VerifySectors(sector, data) {
		t.Fatal("corrupt sector read passes")
	}
	// Misaligned extents pass unverified rather than guessing.
	if !sg.VerifySectors(sector+1, data[:512]) {
		t.Fatal("misaligned extent did not pass")
	}
	// nil receiver and nil guard are permissive.
	var nilSG *SectorGuard
	if !nilSG.VerifySectors(0, data) || !(&SectorGuard{}).VerifySectors(0, data) {
		t.Fatal("nil sector guard not permissive")
	}
}

// newCorrupting builds a CorruptingStore over a fresh MemStore seeded with
// recognizable content in blocks [0, blocks).
func newCorrupting(t *testing.T, plan *fault.Plan, blocks uint64) (*CorruptingStore, *device.MemStore) {
	t.Helper()
	mem := device.NewMemStore(bs)
	for i := uint64(0); i < blocks; i++ {
		mem.WriteBlocks(i, fill(byte(i+1), bs))
	}
	return NewCorruptingStore(mem, plan, "store", bs, blocks), mem
}

func TestCorruptingStoreBitRot(t *testing.T) {
	plan := fault.NewPlan(42).WithRule(fault.Rule{Kind: fault.BitRot, Rate: 1, Limit: 1})
	cs, mem := newCorrupting(t, plan, 8)

	buf := make([]byte, 2*bs)
	cs.ReadBlocks(2, buf)
	if cs.BitRots != 1 {
		t.Fatalf("BitRots = %d, want 1", cs.BitRots)
	}
	// Exactly one bit of the read range differs from the pristine content.
	diff := 0
	for i, b := range buf {
		want := byte(2 + 1 + i/bs)
		for x := b ^ want; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flips in returned data = %d, want 1", diff)
	}
	// The rot is persistent: a direct read of the backing store sees it too.
	raw := make([]byte, 2*bs)
	mem.ReadBlocks(2, raw)
	if !bytes.Equal(raw, buf) {
		t.Fatal("bit rot not persisted to backing store")
	}
}

func TestCorruptingStoreTornWrite(t *testing.T) {
	plan := fault.NewPlan(7).WithRule(fault.Rule{Kind: fault.TornWrite, Rate: 1, Limit: 2})
	cs, mem := newCorrupting(t, plan, 8)

	// Multi-block tear: first half lands, tail keeps old content.
	cs.WriteBlocks(0, fill(0xEE, 4*bs))
	got := make([]byte, 4*bs)
	mem.ReadBlocks(0, got)
	if !bytes.Equal(got[:2*bs], fill(0xEE, 2*bs)) {
		t.Fatal("torn write head not persisted")
	}
	if bytes.Equal(got[2*bs:3*bs], fill(0xEE, bs)) {
		t.Fatal("torn write tail was persisted")
	}

	// Single-block tear: new head, old tail inside the block.
	cs.WriteBlocks(6, fill(0xDD, bs))
	blk := make([]byte, bs)
	mem.ReadBlocks(6, blk)
	if !bytes.Equal(blk[:bs/2], fill(0xDD, bs/2)) || !bytes.Equal(blk[bs/2:], fill(7, bs/2)) {
		t.Fatal("intra-block tear wrong")
	}
	if cs.TornWrites != 2 {
		t.Fatalf("TornWrites = %d, want 2", cs.TornWrites)
	}
}

func TestCorruptingStoreMisdirectedAndLost(t *testing.T) {
	// Both rules fire on the first write (draws consume limits even when
	// first-corruption-wins picks the earlier rule), so LostWrite needs a
	// second firing for the second write.
	plan := fault.NewPlan(11).
		WithRule(fault.Rule{Kind: fault.MisdirectedWrite, Rate: 1, Limit: 1}).
		WithRule(fault.Rule{Kind: fault.LostWrite, Rate: 1, Limit: 2})
	cs, mem := newCorrupting(t, plan, 64)

	// First write is misdirected: the addressed block stays stale and some
	// other block receives the payload.
	cs.WriteBlocks(3, fill(0xCC, bs))
	blk := make([]byte, bs)
	mem.ReadBlocks(3, blk)
	if bytes.Equal(blk, fill(0xCC, bs)) {
		t.Fatal("misdirected write landed at the addressed LBA")
	}
	landed := false
	for i := uint64(0); i < 64; i++ {
		mem.ReadBlocks(i, blk)
		if bytes.Equal(blk, fill(0xCC, bs)) {
			landed = true
			break
		}
	}
	if !landed {
		t.Fatal("misdirected payload landed nowhere")
	}

	// Second write is lost: acknowledged, nothing persisted.
	cs.WriteBlocks(5, fill(0x99, bs))
	mem.ReadBlocks(5, blk)
	if bytes.Equal(blk, fill(0x99, bs)) {
		t.Fatal("lost write was persisted")
	}
	if cs.Misdirected != 1 || cs.LostWrites != 1 {
		t.Fatalf("Misdirected=%d LostWrites=%d, want 1/1", cs.Misdirected, cs.LostWrites)
	}

	// Later writes pass through untouched once the limits are exhausted.
	cs.WriteBlocks(9, fill(0x55, bs))
	mem.ReadBlocks(9, blk)
	if !bytes.Equal(blk, fill(0x55, bs)) {
		t.Fatal("post-limit write did not pass through")
	}
}

func TestCorruptingStoreDeterminism(t *testing.T) {
	run := func() uint32 {
		plan := fault.NewPlan(99).
			WithRule(fault.Rule{Kind: fault.BitRot, Rate: 0.5, Limit: 3}).
			WithRule(fault.Rule{Kind: fault.MisdirectedWrite, Rate: 0.5, Limit: 2})
		cs, mem := newCorrupting(t, plan, 32)
		buf := make([]byte, bs)
		for i := 0; i < 20; i++ {
			cs.WriteBlocks(uint64(i%32), fill(byte(i), bs))
			cs.ReadBlocks(uint64((i*7)%32), buf)
		}
		return mem.ContentCRC()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverge: %08x vs %08x", a, b)
	}
}
