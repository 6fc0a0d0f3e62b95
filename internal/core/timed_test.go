package core

import (
	"testing"

	"nvmetro/internal/sim"
)

// TestNextTimed checks the bound an idle worker may not spin across: the
// oldest live hop deadline (completions trim settled heads) or the oldest
// quarantined tag's reclaim time.
func TestNextTimed(t *testing.T) {
	r := &Router{FastPathDeadline: 100, HTagReclaim: 1000}
	vq := &vqState{htags: make([]hop, 4), htagSeq: make([]uint64, 4)}
	arm := func(cid uint16, at sim.Time) {
		vq.dispatchSeq++
		vq.htags[cid] = hop{req: &request{}}
		vq.htagSeq[cid] = vq.dispatchSeq
		vq.deadlines.push(hqDeadline{cid: cid, seq: vq.dispatchSeq, at: at})
	}
	if got := vq.nextTimed(r); got != sim.Never {
		t.Fatalf("idle queue: %v, want Never", got)
	}
	arm(0, 150)
	arm(1, 160)
	arm(2, 170)
	if got := vq.nextTimed(r); got != 150 {
		t.Fatalf("oldest live deadline: %v, want 150", got)
	}
	vq.htags[0] = hop{} // hop 0 completed: tag free
	vq.htags[1] = hop{} // hop 1 completed and its tag reused by a later hop
	arm(1, 180)
	vq.trimDeadlines()
	if got := vq.nextTimed(r); got != 170 {
		t.Fatalf("after two completions: %v, want 170 (hop 2)", got)
	}
	if n := vq.deadlines.len(); n != 2 {
		t.Fatalf("%d deadlines queued, want 2: settled heads are dropped", n)
	}
	vq.lostHTags.push(lostTag{cid: 3, since: -900})
	if got := vq.nextTimed(r); got != 100 {
		t.Fatalf("with a quarantined tag: %v, want its reclaim time 100", got)
	}
	r.FastPathDeadline = 0 // the sweep is off: nothing is time-driven
	if got := vq.nextTimed(r); got != sim.Never {
		t.Fatalf("deadlines disabled: %v, want Never", got)
	}
}

// TestFifo drives the head-indexed queue through the shapes vqState uses:
// steady push/pop without growth, removal from the middle, drain and reuse.
func TestFifo(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	for i := 0; i < 8; i++ {
		f.push(next)
		next++
	}
	grown := cap(f.items)
	for i := 0; i < 1000; i++ {
		if got := *f.front(); got != want {
			t.Fatalf("front = %d, want %d", got, want)
		}
		f.pop()
		want++
		f.push(next)
		next++
	}
	if cap(f.items) > 2*grown {
		t.Fatalf("steady push/pop grew the backing array from %d to %d", grown, cap(f.items))
	}
	f.removeAt(3)
	for i, skip := 0, want+3; f.len() > 0; i++ {
		if want == skip {
			want++
		}
		if got := *f.front(); got != want {
			t.Fatalf("after removeAt: front = %d, want %d", got, want)
		}
		f.pop()
		want++
	}
	if f.head != 0 || len(f.items) != 0 {
		t.Fatalf("drained queue not reset: head=%d len=%d", f.head, len(f.items))
	}
}
