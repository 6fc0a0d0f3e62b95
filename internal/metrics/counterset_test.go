package metrics

import "testing"

func TestCounterSetOrderAndString(t *testing.T) {
	var s CounterSet
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	if got := s.String(); got != "b=5 a=1" {
		t.Fatalf("String: %q", got)
	}
	if s.Get("b") != 5 || s.Get("a") != 1 || s.Get("missing") != 0 {
		t.Fatal("Get values wrong")
	}
	if n := s.Names(); len(n) != 2 || n[0] != "b" || n[1] != "a" {
		t.Fatalf("Names: %v", n)
	}
}

func TestCounterSetMergeAndEqual(t *testing.T) {
	var a, b CounterSet
	a.Add("x", 1)
	a.Add("y", 2)
	b.Add("y", 3)
	b.Add("z", 4)
	a.Merge(&b)
	if got := a.String(); got != "x=1 y=5 z=4" {
		t.Fatalf("Merge: %q", got)
	}

	var c, d CounterSet
	c.Add("x", 1)
	c.Add("y", 2)
	d.Add("x", 1)
	d.Add("y", 2)
	if !c.Equal(&d) {
		t.Fatal("identical sets not Equal")
	}
	d.Add("y", 1)
	if c.Equal(&d) {
		t.Fatal("differing values Equal")
	}
	var e CounterSet
	e.Add("y", 2)
	e.Add("x", 1)
	if c.Equal(&e) {
		t.Fatal("differing order Equal")
	}
}
