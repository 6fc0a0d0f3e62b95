// Package ebpf implements the sandboxed classifier runtime at the heart of
// NVMetro's I/O router: a faithful subset of the Linux eBPF instruction set
// with an in-process static verifier, interpreter, maps and helper calls.
//
// Classifiers are 64-bit register programs (r0–r10, 512-byte stack) that
// receive a pointer to the classification context in r1 and return a routing
// decision in r0. The context window is writable, which is how classifiers
// perform "direct mediation" (e.g. translating a request's LBA) exactly as
// described in the paper. The verifier enforces the same contract as the
// kernel's: no unbounded loops, no out-of-bounds or uninitialized access,
// null-checked map value pointers, bounded program size.
package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Register names r0..r10.
const (
	R0 = iota // return value / scratch
	R1        // first argument (context pointer on entry)
	R2
	R3
	R4
	R5
	R6 // callee-saved
	R7
	R8
	R9
	R10 // frame pointer (read-only)
	NumRegs
)

// StackSize is the per-program stack size in bytes.
const StackSize = 512

// MaxInsns is the maximum program length the verifier accepts.
const MaxInsns = 4096

// Instruction classes (low 3 bits of the opcode).
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassALU64 = 0x07
)

// Size field for load/store opcodes.
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// Mode field for load/store opcodes.
const (
	ModeIMM = 0x00
	ModeMEM = 0x60
)

// Source bit for ALU/JMP opcodes.
const (
	SrcK = 0x00 // immediate
	SrcX = 0x08 // register
)

// ALU operations (high 4 bits).
const (
	ALUAdd  = 0x00
	ALUSub  = 0x10
	ALUMul  = 0x20
	ALUDiv  = 0x30
	ALUOr   = 0x40
	ALUAnd  = 0x50
	ALULsh  = 0x60
	ALURsh  = 0x70
	ALUNeg  = 0x80
	ALUMod  = 0x90
	ALUXor  = 0xa0
	ALUMov  = 0xb0
	ALUArsh = 0xc0
)

// Jump operations (high 4 bits).
const (
	JmpA    = 0x00
	JmpEq   = 0x10
	JmpGt   = 0x20
	JmpGe   = 0x30
	JmpSet  = 0x40
	JmpNe   = 0x50
	JmpSGt  = 0x60
	JmpSGe  = 0x70
	JmpCall = 0x80
	JmpExit = 0x90
	JmpLt   = 0xa0
	JmpLe   = 0xb0
	JmpSLt  = 0xc0
	JmpSLe  = 0xd0
)

// OpLdImm64 is the two-slot 64-bit immediate load (class LD, size DW).
const OpLdImm64 = ClassLD | SizeDW | ModeIMM

// PseudoMapFD in the src register of an OpLdImm64 marks the immediate as a
// map reference rather than a plain constant (mirrors BPF_PSEUDO_MAP_FD).
const PseudoMapFD = 1

// Insn is one 8-byte eBPF instruction (OpLdImm64 uses two).
type Insn struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
}

// Class returns the instruction class.
func (i Insn) Class() uint8 { return i.Op & 0x07 }

// InsnSize is the encoded instruction size in bytes.
const InsnSize = 8

// Encode serializes the instruction in the kernel's wire layout:
// op:8 dst:4 src:4 off:16 imm:32, little-endian.
func (i Insn) Encode() [InsnSize]byte {
	var b [InsnSize]byte
	b[0] = i.Op
	b[1] = i.Dst&0xf | i.Src<<4
	binary.LittleEndian.PutUint16(b[2:4], uint16(i.Off))
	binary.LittleEndian.PutUint32(b[4:8], uint32(i.Imm))
	return b
}

// Program is a verified-or-not sequence of instructions plus the maps it
// references (indexed by the imm of PseudoMapFD loads).
type Program struct {
	Insns []Insn
	Maps  []Map
	Name  string
}

// Encode serializes all instructions.
func (p *Program) Encode() []byte {
	out := make([]byte, 0, len(p.Insns)*InsnSize)
	for _, in := range p.Insns {
		b := in.Encode()
		out = append(out, b[:]...)
	}
	return out
}

func (i Insn) String() string {
	if s, err := disasmOne(i, Insn{}); err == nil {
		return s
	}
	return fmt.Sprintf("insn{op=%#02x dst=r%d src=r%d off=%d imm=%d}", i.Op, i.Dst, i.Src, i.Off, i.Imm)
}

// Helper IDs (the kernel's numbering).
const (
	HelperMapLookup  = 1
	helperMapUpdate  = 2
	helperMapDelete  = 3
	helperGetPrandom = 7
)
