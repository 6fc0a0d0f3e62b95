package ebpf

import (
	"math/rand"
	"testing"
)

// StaticVerdictReference exposes the reference analysis to the external test
// package, which can also reach the shipped classifiers.
var StaticVerdictReference = staticVerdictReference

// VerdictCorpus compiles n genProgram outputs (every fifth constant-only, as
// in the differential test) and the staticCases programs.
func VerdictCorpus(t *testing.T, n int) []*CompiledProgram {
	t.Helper()
	var out []*CompiledProgram
	for seed := int64(0); seed < int64(n); seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)), newDiffMaps(), seed%5 == 0)
		cp, err := Compile(p, &Verifier{CtxSize: diffCtxSize})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, cp)
	}
	for name, c := range staticCases {
		out = append(out, mustCompile(t, c.build(), name))
	}
	return out
}
