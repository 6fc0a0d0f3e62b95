package ebpf

import (
	"bytes"
	"errors"
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
// diffCtxSize ctx window, verifies it and compiles it. Verify must accept
// exactly what Compile accepts. A refused program runs once on the
// interpreter, the reference for unverified input, which must return a
// value, ErrFault or ErrFuel and never panic. One they accept runs
// fuzzInvocations times on both tiers, and
//   - neither tier may reach a defense-in-depth check (ErrFault, ErrFuel);
//   - the tiers agree on r0, ctx bytes and map contents;
//   - a proved StaticVerdict is what every invocation returns.
//
// The seed corpus (the staticCases programs, genProgram outputs, the
// wrapping-offset programs and a call to helper 64, which no kernel helper
// has) runs with every `go test`; `make fuzz-smoke` explores beyond it.
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
	f.Add(fuzzCode(NewBuilder().MovImm(R1, 1).Call(64).MovImm(R0, 0).Exit().MustProgram("h64")))
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
		verr := (&Verifier{CtxSize: diffCtxSize}).Verify(progI)
		cp, err := Compile(progC, &Verifier{CtxSize: diffCtxSize})
		if (verr == nil) != (err == nil) {
			t.Fatalf("Verify: %v, Compile: %v\n%s", verr, err, Disassemble(progI))
		}
		if err != nil {
			if _, err := NewVM(nil).Run(progI, make([]byte, diffCtxSize)); err != nil && !errors.Is(err, errFault) && !errors.Is(err, errFuel) {
				t.Fatalf("refused program: interpreter returned %v\n%s", err, Disassemble(progI))
			}
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
			}
		}
		if err := mapsI.equal(mapsC); err != nil {
			t.Fatalf("%v\n%s", err, Disassemble(progI))
		}
	})
}
