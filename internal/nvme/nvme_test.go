package nvme

import (
	"bytes"
	"testing"
	"testing/quick"

	"nvmetro/internal/guestmem"
)

func TestCommandFieldRoundTrip(t *testing.T) {
	c := NewRW(OpWrite, 0x1234, 7, 0xdeadbeefcafe, 16, 0x1000, 0x2000)
	if c.Opcode() != OpWrite || c.CID() != 0x1234 || c.NSID() != 7 {
		t.Fatalf("header fields: %v", &c)
	}
	if c.SLBA() != 0xdeadbeefcafe || c.Blocks() != 16 || c.NLB() != 15 {
		t.Fatalf("lba fields: %v", &c)
	}
	if c.PRP1() != 0x1000 || c.PRP2() != 0x2000 {
		t.Fatal("prp fields")
	}
	if !c.IsIO() {
		t.Fatal("write is IO")
	}
	f := NewFlush(1, 1)
	if f.IsIO() {
		t.Fatal("flush is not IO")
	}
}

func TestCommandFieldProperty(t *testing.T) {
	f := func(cid uint16, nsid uint32, slba uint64, nlb uint16) bool {
		var c Command
		c.SetCID(cid)
		c.SetNSID(nsid)
		c.SetSLBA(slba)
		c.SetNLB(nlb)
		return c.CID() == cid && c.NSID() == nsid && c.SLBA() == slba && c.NLB() == nlb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionStatusPreservesPhase(t *testing.T) {
	var e Completion
	e.SetPhase(true)
	e.SetStatus(SCLBAOutOfRange)
	if !e.Phase() || e.Status() != SCLBAOutOfRange {
		t.Fatalf("phase=%v status=%v", e.Phase(), e.Status())
	}
	e.SetStatus(SCSuccess)
	if !e.Phase() {
		t.Fatal("SetStatus cleared phase")
	}
	e.SetPhase(false)
	if e.Status() != SCSuccess {
		t.Fatal("SetPhase clobbered status")
	}
}

func TestStatusCodes(t *testing.T) {
	if !SCSuccess.OK() || SCInternal.OK() {
		t.Fatal("OK()")
	}
	if SCWriteFault.SCT() != 2 || SCWriteFault.SC() != 0x80 {
		t.Fatalf("write fault sct=%d sc=%#x", SCWriteFault.SCT(), SCWriteFault.SC())
	}
	if StatusOf(nil) != SCSuccess || StatusOf(SCInvalidNS) != SCInvalidNS {
		t.Fatal("StatusOf")
	}
	if StatusOf(ErrBadPRP) != SCInternal {
		t.Fatal("StatusOf generic error")
	}
}

func TestSQPushPopFIFO(t *testing.T) {
	q := NewSQ(1, 8)
	for i := uint16(0); i < 7; i++ {
		c := NewRW(OpRead, i, 1, uint64(i), 1, 0, 0)
		if !q.Push(&c) {
			t.Fatalf("push %d failed", i)
		}
	}
	if !q.Full() {
		t.Fatal("queue should be full at size-1 entries")
	}
	c := NewRW(OpRead, 99, 1, 0, 1, 0, 0)
	if q.Push(&c) {
		t.Fatal("push into full queue succeeded")
	}
	for i := uint16(0); i < 7; i++ {
		var got Command
		if !q.Pop(&got) || got.CID() != i {
			t.Fatalf("pop %d: got %v", i, &got)
		}
	}
	if !q.Empty() {
		t.Fatal("should be empty")
	}
}

func TestSQWrapAround(t *testing.T) {
	q := NewSQ(1, 4)
	var c, got Command
	for round := 0; round < 10; round++ {
		c.SetCID(uint16(round))
		if !q.Push(&c) {
			t.Fatalf("round %d push", round)
		}
		if !q.Pop(&got) || got.CID() != uint16(round) {
			t.Fatalf("round %d pop cid %d", round, got.CID())
		}
	}
}

func TestCQPhaseProtocolOverWraps(t *testing.T) {
	q := NewCQ(1, 4)
	var e Completion
	for i := 0; i < 25; i++ {
		if q.Peek() {
			t.Fatalf("iter %d: phantom entry", i)
		}
		if !q.Post(uint16(i), 1, 0, SCSuccess, 0) {
			t.Fatalf("iter %d: post failed", i)
		}
		if !q.Peek() || !q.Pop(&e) {
			t.Fatalf("iter %d: pop failed", i)
		}
		if e.CID() != uint16(i) || !e.Status().OK() {
			t.Fatalf("iter %d: %v", i, &e)
		}
	}
}

func TestCQFullDetection(t *testing.T) {
	q := NewCQ(1, 4)
	for i := 0; i < 3; i++ {
		if !q.Post(uint16(i), 1, 0, SCSuccess, 0) {
			t.Fatalf("post %d", i)
		}
	}
	if q.Post(9, 1, 0, SCSuccess, 0) {
		t.Fatal("post into full CQ succeeded")
	}
	var e Completion
	for i := 0; i < 3; i++ {
		if !q.Pop(&e) || e.CID() != uint16(i) {
			t.Fatalf("pop %d: %v", i, &e)
		}
	}
	if q.Pop(&e) || q.Peek() {
		t.Fatal("pop from empty")
	}
	if e.CID() != 2 {
		t.Fatalf("a failed pop overwrote the caller's entry: %v", &e)
	}
}

// TestQueueHooks: CQ.OnPost and SQ.OnPush fire exactly once per entry the
// ring accepts, after the entry is visible to the consumer, and never for a
// push or post a full ring refuses.
func TestQueueHooks(t *testing.T) {
	sq, cq := NewSQ(1, 4), NewCQ(1, 4)
	pushed, posted := 0, 0
	sq.OnPush = func() {
		if pushed++; sq.Len() != uint32(pushed) {
			t.Fatalf("push hook %d ran with %d entries visible", pushed, sq.Len())
		}
	}
	cq.OnPost = func() {
		if posted++; cq.Len() != uint32(posted) || !cq.Peek() {
			t.Fatalf("post hook %d ran with %d entries visible", posted, cq.Len())
		}
	}
	for i := 0; i < 5; i++ {
		cmd := NewRW(OpRead, uint16(i), 1, 0, 1, 0, 0)
		if ok := sq.Push(&cmd); ok != (i < 3) {
			t.Fatalf("push %d into a depth-4 SQ returned %v", i, ok)
		}
		if ok := cq.Post(uint16(i), 1, 0, SCSuccess, 0); ok != (i < 3) {
			t.Fatalf("post %d into a depth-4 CQ returned %v", i, ok)
		}
	}
	if pushed != 3 || posted != 3 {
		t.Fatalf("hooks fired %d/%d times for 3 accepted entries each", pushed, posted)
	}
	// Draining makes room again; the next accepted entry fires once more.
	var cmd Command
	var e Completion
	for sq.Pop(&cmd) && cq.Pop(&e) {
	}
	pushed, posted = 0, 0
	if !sq.Push(&cmd) || !cq.Push(&e) || pushed != 1 || posted != 1 {
		t.Fatalf("after draining: hooks fired %d/%d times for one entry each", pushed, posted)
	}
}

func TestWalkPRPSinglePage(t *testing.T) {
	mem := guestmem.New(1 << 20)
	segs, err := WalkPRP(mem, 0x3000, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != (Segment{0x3000, 512}) {
		t.Fatalf("segs %v", segs)
	}
	// Offset within page, still fits.
	segs, err = WalkPRP(mem, 0x3200, 0, 512)
	if err != nil || len(segs) != 1 || segs[0].Len != 512 {
		t.Fatalf("segs %v err %v", segs, err)
	}
}

func TestWalkPRPTwoPages(t *testing.T) {
	mem := guestmem.New(1 << 20)
	segs, err := WalkPRP(mem, 0x3800, 0x5000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0] != (Segment{0x3800, 2048}) || segs[1] != (Segment{0x5000, 2048}) {
		t.Fatalf("segs %v", segs)
	}
}

func TestBuildWalkPRPRoundTrip(t *testing.T) {
	mem := guestmem.New(16 << 20)
	for _, npages := range []int{1, 2, 3, 8, 33, 513} {
		var pages []uint64
		for i := 0; i < npages; i++ {
			pages = append(pages, mem.MustAllocPages(1))
		}
		alloc := func() uint64 { return mem.MustAllocPages(1) }
		prp1, prp2, err := BuildPRP(mem, pages, alloc)
		if err != nil {
			t.Fatalf("npages=%d: %v", npages, err)
		}
		nbytes := uint32(npages * PageSize)
		segs, err := WalkPRP(mem, prp1, prp2, nbytes)
		if err != nil {
			t.Fatalf("npages=%d: walk: %v", npages, err)
		}
		if TotalLen(segs) != nbytes {
			t.Fatalf("npages=%d: total %d != %d", npages, TotalLen(segs), nbytes)
		}
		for i, s := range segs {
			if s.Addr != pages[i] {
				t.Fatalf("npages=%d seg %d: addr %#x want %#x", npages, i, s.Addr, pages[i])
			}
		}
	}
}

func TestReadWriteSegments(t *testing.T) {
	mem := guestmem.New(1 << 20)
	segs := []Segment{{0x1000, 100}, {0x5000, 200}, {0x9f00, 56}}
	src := make([]byte, 356)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := WriteSegments(mem, segs, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 356)
	if err := ReadSegments(mem, segs, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("segment round trip mismatch")
	}
}

func TestIdentifyControllerRoundTrip(t *testing.T) {
	in := ControllerInfo{VID: 0x1b36, Serial: "NVMETRO0001", Model: "NVMetro Virtual Controller", Firmware: "1.0", NN: 4, MaxXfer: 5, SQES: 6, CQES: 4}
	out := ParseControllerInfo(in.Marshal())
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestIdentifyNamespaceRoundTrip(t *testing.T) {
	in := NamespaceInfo{Size: 1 << 30, Capacity: 1 << 30, Used: 42, LBAShift: 9}
	out := ParseNamespaceInfo(in.Marshal())
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
	if out.BlockSize() != 512 || out.Bytes() != 512<<30 {
		t.Fatal("derived sizes")
	}
}

func BenchmarkSQPushPop(b *testing.B) {
	q := NewSQ(1, 1024)
	c := NewRW(OpRead, 1, 1, 0, 8, 0x1000, 0)
	var got Command
	for i := 0; i < b.N; i++ {
		q.Push(&c)
		q.Pop(&got)
	}
}

func BenchmarkWalkPRP128K(b *testing.B) {
	mem := guestmem.New(16 << 20)
	var pages []uint64
	for i := 0; i < 32; i++ {
		pages = append(pages, mem.MustAllocPages(1))
	}
	prp1, prp2, _ := BuildPRP(mem, pages, func() uint64 { return mem.MustAllocPages(1) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WalkPRP(mem, prp1, prp2, 128<<10); err != nil {
			b.Fatal(err)
		}
	}
}
