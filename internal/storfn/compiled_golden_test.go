package storfn_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/ebpf"
)

var update = flag.Bool("update", false, "rewrite testdata/compiled from the current compiler")

// TestCompiledGolden pins what `nvmetro-asm -compile -hex` prints for every
// shipped classifier: the compiled op stream (Dump) and the encoded
// bytecode must match testdata/compiled/<name>.txt byte for byte. Run with
// -update to regenerate after an intended change to either.
func TestCompiledGolden(t *testing.T) {
	for name, build := range shippedClassifiers() {
		t.Run(name, func(t *testing.T) {
			p := build()
			cp, err := ebpf.Compile(p, core.NewVerifier())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var sb strings.Builder
			sb.WriteString(cp.Dump())
			code := p.Encode()
			fmt.Fprintf(&sb, "\nbytecode (%d bytes):\n", len(code))
			for i := 0; i < len(code); i += ebpf.InsnSize {
				fmt.Fprintf(&sb, "  %04d: % x\n", i/ebpf.InsnSize, code[i:i+ebpf.InsnSize])
			}
			got := sb.String()

			path := filepath.Join("testdata", "compiled", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the compiler's output:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
