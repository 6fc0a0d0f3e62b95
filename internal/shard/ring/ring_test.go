package ring

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFIFOSingleProducer checks strict order with one producer.
func TestFIFOSingleProducer(t *testing.T) {
	q := New()
	const n = 1000
	for i := 0; i < n; i++ {
		i := i
		wasEmpty := q.Push(func() { _ = i })
		if (i == 0) != wasEmpty {
			t.Fatalf("push %d: wasEmpty=%v", i, wasEmpty)
		}
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	got := 0
	for fn, ok := q.Pop(); ok; fn, ok = q.Pop() {
		fn()
		got++
	}
	if got != n {
		t.Fatalf("drained %d, want %d", got, n)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on empty queue")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestFIFOOrderValues checks that values come out oldest-first.
func TestFIFOOrderValues(t *testing.T) {
	q := New()
	var out []int
	for i := 0; i < 100; i++ {
		i := i
		q.Push(func() { out = append(out, i) })
	}
	for fn, ok := q.Pop(); ok; fn, ok = q.Pop() {
		fn()
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMPSCRace hammers the queue with real concurrent producers and a
// single consumer — the configuration the race detector must bless: many
// kernel-completion contexts fanning into one shard's inbox. Asserts no
// thunk is lost or duplicated and per-producer order is preserved.
func TestMPSCRace(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	q := New()

	var produced sync.WaitGroup
	type mark struct{ producer, seq int }
	ch := make(chan mark, producers*perProducer)

	produced.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		go func() {
			defer produced.Done()
			for i := 0; i < perProducer; i++ {
				p, i := p, i
				q.Push(func() { ch <- mark{p, i} })
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		got := 0
		for got < producers*perProducer {
			fn, ok := q.Pop()
			if !ok {
				continue // producer mid-push or queue drained; spin
			}
			fn()
			got++
		}
	}()
	produced.Wait()
	<-done
	close(ch)

	seen := make([]int, producers)
	total := 0
	for m := range ch {
		if m.seq != seen[m.producer] {
			t.Fatalf("producer %d: got seq %d, want %d (reorder or loss)",
				m.producer, m.seq, seen[m.producer])
		}
		seen[m.producer]++
		total++
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestMPSCRaceDrain exercises Drain (the shard-round entry point) under
// concurrent producers: repeated drains must eventually account for every
// push exactly once.
func TestMPSCRaceDrain(t *testing.T) {
	const producers = 4
	const perProducer = 2000
	q := New()
	var produced sync.WaitGroup
	var pushed, popped atomic.Int64

	produced.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer produced.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(func() { popped.Add(1) })
				pushed.Add(1)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for popped.Load() < producers*perProducer {
			for fn, ok := q.Pop(); ok; fn, ok = q.Pop() {
				fn()
			}
		}
	}()
	produced.Wait()
	<-done

	if pushed.Load() != popped.Load() {
		t.Fatalf("pushed %d, popped %d", pushed.Load(), popped.Load())
	}
}

// BenchmarkMPSC measures the uncontended push+pop round trip.
func BenchmarkMPSC(b *testing.B) {
	q := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(fn)
		q.Pop()
	}
}
