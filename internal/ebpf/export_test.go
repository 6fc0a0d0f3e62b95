package ebpf

import (
	"encoding/binary"
	"fmt"
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

// Source returns the program cp was compiled from.
func (cp *CompiledProgram) Source() *Program { return cp.src }

// Bytecode decoding and the register-source and 32-bit immediate ALU forms
// of the Builder: only tests decode programs or build these instructions
// from Go (the assembler emits every form from text).

// ALU emits a 64-bit ALU op with register source (e.g. ALUAdd).
func (b *Builder) ALU(op uint8, dst, src uint8) *Builder {
	return b.emit(Insn{Op: ClassALU64 | op | SrcX, Dst: dst, Src: src})
}

// ALU32Imm emits a 32-bit ALU op with an immediate source.
func (b *Builder) ALU32Imm(op uint8, dst uint8, imm int32) *Builder {
	return b.emit(Insn{Op: ClassALU | op | SrcK, Dst: dst, Imm: imm})
}

// DecodeInsn parses one encoded instruction.
func DecodeInsn(b []byte) Insn {
	return Insn{
		Op:  b[0],
		Dst: b[1] & 0xf,
		Src: b[1] >> 4,
		Off: int16(binary.LittleEndian.Uint16(b[2:4])),
		Imm: int32(binary.LittleEndian.Uint32(b[4:8])),
	}
}

// Decode parses an encoded program. Maps must be attached separately.
func Decode(code []byte, name string) (*Program, error) {
	if len(code)%InsnSize != 0 {
		return nil, fmt.Errorf("ebpf: code size %d not a multiple of %d", len(code), InsnSize)
	}
	p := &Program{Name: name}
	for off := 0; off < len(code); off += InsnSize {
		p.Insns = append(p.Insns, DecodeInsn(code[off:]))
	}
	return p, nil
}
