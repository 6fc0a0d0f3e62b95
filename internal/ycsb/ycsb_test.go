package ycsb

import (
	"math/rand"
	"testing"
)

func TestZipfSkewAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := newZipf(rng, 1000)
	counts := make(map[int]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.next()
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Zipf(0.99): the hottest key should take a few percent of all draws,
	// far above uniform (0.1%).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/draws < 0.01 {
		t.Fatalf("hottest key only %.4f of draws; not zipfian", float64(max)/draws)
	}
	// But the tail must still be covered.
	if len(counts) < 400 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := newZipf(rand.New(rand.NewSource(5)), 100)
	b := newZipf(rand.New(rand.NewSource(5)), 100)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("zipf not deterministic for equal seeds")
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if key(0) != "user000000000000" || key(123456) != "user000000123456" {
		t.Fatalf("key format %q %q", key(0), key(123456))
	}
	// Keys sort in insertion order (needed by workload D's "latest").
	if !(key(1) < key(2) && key(99) < key(100)) {
		t.Fatal("keys must sort numerically")
	}
}

func TestWorkloadList(t *testing.T) {
	ws := All()
	if len(ws) != 6 || ws[0] != WorkloadA || ws[5] != WorkloadF {
		t.Fatalf("workloads %v", ws)
	}
	if WorkloadC.String() != "C" {
		t.Fatal("stringer")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Records <= 0 || cfg.Duration <= 0 {
		t.Fatalf("%+v", cfg)
	}
}
