package bufpool

import "testing"

func TestPoolRecyclesByClass(t *testing.T) {
	var p Pool
	for _, n := range []int{1, 512, 513, 4096, 4097, 128 << 10, 1 << 20} {
		b := p.Get(n)
		if len(b) != n || cap(b) < n || cap(b)&(cap(b)-1) != 0 {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		b[0], b[n-1] = 1, 2
		p.Put(b)
		// Any size of the same class gets the same storage back.
		again := p.Get(cap(b)/2 + 1)
		if &again[:1][0] != &b[:1][0] {
			t.Fatalf("Get after Put(%d) did not reuse the buffer", n)
		}
		if other := p.Get(n); &other[:1][0] == &b[:1][0] {
			t.Fatalf("buffer of %d handed out twice", n)
		}
	}
}

func TestPoolIgnoresForeignAndHuge(t *testing.T) {
	var p Pool
	p.Put(make([]byte, 1000))  // capacity matches no class
	p.Put(make([]byte, 2<<20)) // above the largest class
	p.Put(nil)
	for c, l := range p.free {
		if len(l) != 0 {
			t.Fatalf("class %d kept a foreign buffer", c)
		}
	}
	if b := p.Get(2 << 20); len(b) != 2<<20 {
		t.Fatalf("huge Get: len %d", len(b))
	}
}

func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	var p Pool
	p.Put(p.Get(4096))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(4096)) }); n != 0 {
		t.Fatalf("%v allocs per Get/Put cycle, want 0", n)
	}
}
