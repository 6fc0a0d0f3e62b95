package ebpf

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzInvocations is how many times FuzzVerifiedProgram runs an accepted
// program on each tier: enough for map state and prandom to move.
const fuzzInvocations = 3

// fuzzCode encodes p for FuzzVerifiedProgram, whose programs see a diffMaps
// pair: every array map becomes map 0 and every hash map map 1.
func fuzzCode(p *Program) []byte {
	q := &Program{Insns: append([]Insn(nil), p.Insns...)}
	for i, in := range q.Insns {
		if in.Op == OpLdImm64 && in.Src == PseudoMapFD {
			if _, ok := p.Maps[in.Imm].(*HashMap); ok {
				q.Insns[i].Imm = 1
			} else {
				q.Insns[i].Imm = 0
			}
		}
	}
	return q.Encode()
}

// FuzzVerifiedProgram decodes its input into a program over a fixed pair of
// maps (diffMaps: an array map at index 0, a hash map at index 1) and a
// diffCtxSize ctx window and compiles it. A program Compile refuses must only
// not panic: the verifier rejected it, or the translator found an undefined
// instruction on no path the verifier walks. One it accepts runs
// fuzzInvocations times on both tiers, and
//   - neither tier may reach a defense-in-depth check (ErrFault, ErrFuel);
//   - the tiers agree on r0, ctx bytes, QoS class and map contents;
//   - a proved StaticVerdict is what every invocation returns.
//
// The seed corpus (the staticCases programs, genProgram outputs and the
// wrapping-offset programs) runs with every `go test`; `make fuzz-smoke`
// explores beyond it.
func FuzzVerifiedProgram(f *testing.F) {
	for _, c := range staticCases {
		f.Add(fuzzCode(c.build().MustProgram("seed")))
	}
	for seed := int64(0); seed < 50; seed++ {
		f.Add(fuzzCode(genProgram(rand.New(rand.NewSource(seed)), newDiffMaps(), seed%5 == 0)))
	}
	for _, p := range wrapPrograms() {
		f.Add(fuzzCode(p))
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		p, err := Decode(code[:len(code)/InsnSize*InsnSize], "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		mapsI := newDiffMaps()
		for i := 0; i < 4; i++ {
			mapsI.arr.SetU64(i, 0, uint64(i+1)*0x9e3779b97f4a7c15)
		}
		mapsC := mapsI.clone()
		progI := &Program{Insns: p.Insns, Maps: []Map{mapsI.arr, mapsI.hash}, Name: p.Name}
		progC := &Program{Insns: p.Insns, Maps: []Map{mapsC.arr, mapsC.hash}, Name: p.Name}
		cp, err := Compile(progC, &Verifier{CtxSize: diffCtxSize})
		if err != nil {
			return
		}
		verdict, proved := cp.StaticVerdict()
		vmI, vmC := NewVM(nil), NewVM(nil)
		for inv := 0; inv < fuzzInvocations; inv++ {
			ctxI := make([]byte, diffCtxSize)
			for i := range ctxI {
				ctxI[i] = byte(i*7 + inv*31)
			}
			ctxC := append([]byte(nil), ctxI...)
			retI, errI := vmI.Run(progI, ctxI)
			retC, errC := vmC.RunCompiled(cp, ctxC)
			switch {
			case errI != nil || errC != nil:
				t.Fatalf("inv %d: accepted program failed: interp %v, compiled %v\n%s", inv, errI, errC, Disassemble(progI))
			case retI != retC:
				t.Fatalf("inv %d: r0 %#x (interp) != %#x (compiled)\n%s", inv, retI, retC, Disassemble(progI))
			case proved && retC != verdict:
				t.Fatalf("inv %d: StaticVerdict proved %#x, invocation returned %#x\n%s", inv, verdict, retC, Disassemble(progI))
			case !bytes.Equal(ctxI, ctxC):
				t.Fatalf("inv %d: ctx diverged\ninterp:   %x\ncompiled: %x\n%s", inv, ctxI, ctxC, Disassemble(progI))
			case vmI.QoSClass != vmC.QoSClass:
				t.Fatalf("inv %d: QoS class %d (interp) != %d (compiled)\n%s", inv, vmI.QoSClass, vmC.QoSClass, Disassemble(progI))
			}
		}
		if err := mapsI.equal(mapsC); err != nil {
			t.Fatalf("%v\n%s", err, Disassemble(progI))
		}
	})
}
