package nvme

import "testing"

// slots returns how many entries a ring's backing holds.
func (r *ring) slots(esz uint32) uint32 { return uint32(len(r.buf)) / esz }

// TestRingBackingTracksHighWater: a ring's backing follows the most entries
// it has held, not its depth. QD1 traffic over ten wraps of a 128-deep pair
// keeps at most two slots per ring; a burst to 100 entries, from a head that
// makes it wrap, grows both to 128 with every entry in order, and they keep
// 128 once drained; a depth that is not a power of two takes all
// its slots at the first push.
func TestRingBackingTracksHighWater(t *testing.T) {
	qp := NewQueuePair(1, 128)
	sq, cq := qp.SQ, qp.CQ
	var cmd Command
	var e Completion
	roundTrip := func(cid uint16) {
		t.Helper()
		c := NewRW(OpRead, cid, 1, uint64(cid), 1, 0, 0)
		if !sq.Push(&c) || !sq.Pop(&cmd) || cmd.CID() != cid {
			t.Fatalf("cid %d: SQ round trip gave cid %d", cid, cmd.CID())
		}
		if !cq.Post(cid, 1, sq.Head(), SCSuccess, 0) || !cq.Pop(&e) || e.CID() != cid {
			t.Fatalf("cid %d: CQ round trip gave cid %d", cid, e.CID())
		}
	}
	for i := 0; i < 10*128+77; i++ { // ten wraps, then head 77: the burst below wraps
		roundTrip(uint16(i))
		if sq.slots(CommandSize) > 2 || cq.slots(CompletionSize) > 2 {
			t.Fatalf("QD1 entry %d: backing of %d/%d slots", i, sq.slots(CommandSize), cq.slots(CompletionSize))
		}
	}

	for i := uint16(0); i < 100; i++ {
		c := NewRW(OpRead, 1000+i, 1, 0, 1, 0, 0)
		if !sq.Push(&c) || !cq.Post(1000+i, 1, 0, SCSuccess, 0) {
			t.Fatalf("burst entry %d refused", i)
		}
	}
	if sq.slots(CommandSize) != 128 || cq.slots(CompletionSize) != 128 {
		t.Fatalf("a burst to 100 entries left %d/%d slots, want 128", sq.slots(CommandSize), cq.slots(CompletionSize))
	}
	for i := uint16(0); i < 100; i++ {
		if !sq.Pop(&cmd) || cmd.CID() != 1000+i || !cq.Pop(&e) || e.CID() != 1000+i {
			t.Fatalf("burst entry %d: popped cids %d/%d", i, cmd.CID(), e.CID())
		}
	}
	for i := 0; i < 300; i++ {
		roundTrip(uint16(i))
	}
	if sq.slots(CommandSize) != 128 || cq.slots(CompletionSize) != 128 {
		t.Fatalf("the backing shrank to %d/%d slots", sq.slots(CommandSize), cq.slots(CompletionSize))
	}

	sq, cq = NewSQ(2, 100), NewCQ(2, 100)
	if !sq.Push(&cmd) || !cq.Push(&e) {
		t.Fatal("a depth-100 ring refused its first entry")
	}
	if sq.slots(CommandSize) != 100 || cq.slots(CompletionSize) != 100 {
		t.Fatalf("a depth-100 ring took %d/%d slots at its first push, want 100", sq.slots(CommandSize), cq.slots(CompletionSize))
	}
}

// FuzzQueueMatchesFIFO runs a fuzzed sequence of pushes, pops and peeks on
// an SQ and a CQ and holds them to a slice FIFO: the entries in order, Head,
// Len, Full and Empty, the CQ phase (set on the first lap, flipped by every
// wrap) and a backing of the most entries held rounded up to a power of two,
// or the whole depth when that is not one. Each input byte is an operation
// (low three bits) repeated 1 to 32 times (the rest), so bursts reach growth
// and wraps; the first byte picks the depth.
func FuzzQueueMatchesFIFO(f *testing.F) {
	depths := []uint32{2, 4, 128, 6}
	f.Add([]byte{0, 0, 2, 4, 6})
	f.Add([]byte{1, 0xf8, 0xfc, 0x78, 0x7a, 0x7e})
	f.Add([]byte{2, 0xf8, 0xf8, 0xf8, 0xf8, 0xfa, 0xfa, 0xfa, 0xfa, 0xfc, 0xfc, 0xfc, 0xfc, 0xfe, 0xfe, 0xfe, 0xfe})
	f.Add([]byte{3, 0x28, 0x2c, 0x12, 0x16, 0x0b, 0x0f, 0x28, 0x2c})
	// Growth from a head that is not slot 0, wrapping inside the burst.
	f.Add([]byte{1, 0, 2, 0, 2, 0, 2, 4, 6, 4, 6, 4, 6, 0x10, 0x14, 0x12, 0x16})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 4, 6, 4, 6, 4, 6, 0xf8, 0xf8, 0xf8, 0xfc, 0xfc, 0xfc, 0xfa, 0xfa, 0xfa, 0xfe, 0xfe, 0xfe})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		depth := depths[int(ops[0])%len(depths)]
		sq, cq := NewSQ(1, depth), NewCQ(1, depth)
		var sqFIFO, cqFIFO []uint16
		var sqPops, cqPops, sqHigh, cqHigh uint32
		var next uint16
		var cmd Command
		var e Completion
		for _, b := range ops[1:] {
			for n := 1 + int(b>>3); n > 0; n-- {
				switch b & 7 {
				case 0, 1:
					next++
					c := NewRW(OpRead, next, 1, uint64(next)<<20, 1, uint64(next), 0)
					ok := sq.Push(&c)
					if want := uint32(len(sqFIFO)) < depth-1; ok != want {
						t.Fatalf("SQ push with %d held: %v, want %v", len(sqFIFO), ok, want)
					}
					if ok {
						sqFIFO = append(sqFIFO, next)
						sqHigh = max(sqHigh, uint32(len(sqFIFO)))
					}
				case 2, 3:
					cmd = Command{}
					peek := b&7 == 3
					var ok bool
					if peek {
						ok = sq.Peek(&cmd)
					} else {
						ok = sq.Pop(&cmd)
					}
					if ok != (len(sqFIFO) > 0) {
						t.Fatalf("SQ peek=%v with %d held returned %v", peek, len(sqFIFO), ok)
					}
					if !ok {
						break
					}
					if want := sqFIFO[0]; cmd.CID() != want || cmd.SLBA() != uint64(want)<<20 || cmd.PRP1() != uint64(want) {
						t.Fatalf("SQ peek=%v: cid %d slba %#x prp1 %#x, want cid %d", peek, cmd.CID(), cmd.SLBA(), cmd.PRP1(), want)
					}
					if !peek {
						sqFIFO = sqFIFO[1:]
						sqPops++
					}
				case 4, 5:
					next++
					ok := cq.Post(next, 1, sq.Head(), SCSuccess, uint32(next)*3)
					if want := uint32(len(cqFIFO)) < depth-1; ok != want {
						t.Fatalf("CQ post with %d held: %v, want %v", len(cqFIFO), ok, want)
					}
					if ok {
						cqFIFO = append(cqFIFO, next)
						cqHigh = max(cqHigh, uint32(len(cqFIFO)))
					}
				case 6:
					e = Completion{}
					ok := cq.Pop(&e)
					if ok != (len(cqFIFO) > 0) {
						t.Fatalf("CQ pop with %d held returned %v", len(cqFIFO), ok)
					}
					if !ok {
						break
					}
					if want := cqFIFO[0]; e.CID() != want || e.Result() != uint32(want)*3 || !e.Status().OK() {
						t.Fatalf("CQ pop: cid %d result %d status %v, want cid %d", e.CID(), e.Result(), e.Status(), want)
					}
					if wantPh := (cqPops/depth)%2 == 0; e.Phase() != wantPh {
						t.Fatalf("CQ pop %d: phase %v, want %v", cqPops, e.Phase(), wantPh)
					}
					cqFIFO = cqFIFO[1:]
					cqPops++
				case 7:
					if cq.Peek() != (len(cqFIFO) > 0) {
						t.Fatalf("CQ peek with %d held returned %v", len(cqFIFO), len(cqFIFO) == 0)
					}
				}
			}
			if sq.Head() != sqPops%depth || sq.Len() != uint32(len(sqFIFO)) || sq.Empty() != (len(sqFIFO) == 0) || sq.Full() != (uint32(len(sqFIFO)) == depth-1) {
				t.Fatalf("SQ head %d len %d empty %v full %v; model: %d pops, %d held", sq.Head(), sq.Len(), sq.Empty(), sq.Full(), sqPops, len(sqFIFO))
			}
			if cq.Len() != uint32(len(cqFIFO)) || cq.Full() != (uint32(len(cqFIFO)) == depth-1) {
				t.Fatalf("CQ len %d full %v; model: %d held", cq.Len(), cq.Full(), len(cqFIFO))
			}
			if got, want := sq.slots(CommandSize), backingFor(sqHigh, depth); got != want {
				t.Fatalf("SQ backing of %d slots after holding %d, want %d", got, sqHigh, want)
			}
			if got, want := cq.slots(CompletionSize), backingFor(cqHigh, depth); got != want {
				t.Fatalf("CQ backing of %d slots after holding %d, want %d", got, cqHigh, want)
			}
		}
	})
}

// backingFor is the slot count a depth-deep ring that has held at most high
// entries keeps.
func backingFor(high, depth uint32) uint32 {
	switch {
	case high == 0:
		return 0
	case depth&(depth-1) != 0:
		return depth
	}
	n := uint32(1)
	for n < high {
		n *= 2
	}
	return n
}
