package loc

import "testing"

func TestLinesAndSplit(t *testing.T) {
	const src = "a\n\n  \nb\n// mark\nc\n"
	if n := Lines(src); n != 4 {
		t.Fatalf("Lines = %d, want 4", n)
	}
	if b, f := Split(src, "// mark"); b != 2 || f != 2 {
		t.Fatalf("Split = %d, %d, want 2, 2", b, f)
	}
	if b, f := Split(src, "absent"); b != 4 || f != 0 {
		t.Fatalf("Split without marker = %d, %d, want 4, 0", b, f)
	}
}
