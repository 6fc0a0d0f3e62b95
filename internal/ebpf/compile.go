package ebpf

import (
	"fmt"
	"strings"
)

// This file implements the load-time compilation tier: the analogue of the
// kernel's eBPF JIT. Compile translates a verifier-accepted program into a
// pre-decoded op stream the VM can execute without per-instruction decode,
// map resolution or tagged-value checks:
//
//   - ld_imm64 pairs are fused into one op; pseudo map loads resolve the
//     map index at compile time,
//   - jump offsets become absolute, pre-validated op indices (so the run
//     loop needs no pc bounds check),
//   - loads and stores are specialized per access size; ALU ops and
//     conditional jumps are not specialized at all: each compiles to one op
//     carrying the instruction's opcode byte and executes through aluSem or
//     condSem (sem.go), the same functions the interpreter and the verifier
//     compute with,
//   - each helper call compiles to its helper's own op (helpers.go), and a
//     call to an id outside the kernel's helper set does not compile —
//     ArrayMap lookups additionally inline the index computation,
//   - the runtime kind checks of the interpreter (pointer-ness of memory
//     operands, scalar-ness of ALU operands and stored values, r0 at exit)
//     are elided: the verifier's type lattice has already proven them.
//     Memory bounds checks stay as defense in depth; there is no fuel, since
//     a verified program has no back-edge and runs each op at most once,
//   - the static verdict the verifier proved while it walked the program
//     rides along (StaticVerdict); the compiler runs no analysis of its own.
//
// The interpreter (interp.go) remains the reference implementation, used
// only by tests: the randomized differential test in compile_test.go holds
// the two tiers to identical r0/fault/map-state behaviour.

// copCode is the dense opcode of one pre-decoded operation.
type copCode uint8

// Pre-decoded opcodes. Loads and stores are specialised per access size and
// moves per form; every binary ALU op and neg is one cALU and every
// conditional jump one cJmp, which carry the instruction's opcode byte in
// cop.op and execute through sem.go.
const (
	cBad copCode = iota
	cExit
	cMovImm   // r[dst] = imm (covers mov-imm of both widths and fused ld_imm64)
	cLdMap    // r[dst] = reference to map #off
	cMovReg   // r[dst] = r[src]
	cMovReg32 // r[dst] = u32(r[src])
	cALU      // r[dst] = aluSem(op, r[dst], r[src] or imm)

	// Loads (register destination is always a fresh scalar).
	cLd8
	cLd16
	cLd32
	cLd64
	// Stores, register source.
	cSt8
	cSt16
	cSt32
	cSt64
	// Stores, immediate source (imm pre-truncated to u32, zero-extended).
	cStImm8
	cStImm16
	cStImm32
	cStImm64

	// Jumps; off is the absolute target op index.
	cJa
	cJmp // taken iff condSem(op, r[dst], r[src] or imm)

	// Helper calls, one op per kernel helper (imm = helper id).
	cCallLookup
	cCallUpdate
	cCallDelete
	cCallPrandom
)

// copNames names the ops that do not take their name from a table row.
var copNames = map[copCode]string{
	cBad: "bad", cExit: "exit", cMovImm: "mov_imm", cLdMap: "ld_map",
	cMovReg: "mov_reg", cMovReg32: "mov_reg32",
	cLd8: "ld8", cLd16: "ld16", cLd32: "ld32", cLd64: "ld64",
	cSt8: "st8", cSt16: "st16", cSt32: "st32", cSt64: "st64",
	cStImm8: "st8_imm", cStImm16: "st16_imm", cStImm32: "st32_imm", cStImm64: "st64_imm",
	cJa: "ja", cCallLookup: "call_map_lookup", cCallUpdate: "call_map_update",
	cCallDelete: "call_map_delete", cCallPrandom: "call_prandom",
}

// cop is one pre-decoded operation. op is the source instruction's opcode
// byte (op nibble, register/immediate form, width class), which cALU and
// cJmp execute by. off carries the memory displacement for loads/stores,
// the absolute target op index for jumps, and the map index for cLdMap; imm
// carries the pre-widened immediate (or helper id).
type cop struct {
	code     copCode
	dst, src uint8
	op       uint8
	off      int32
	imm      uint64
}

// nibble, regSrc and is64 decode op: the table row's opcode nibble, the
// register form, and the 64-bit ALU class.
func (o cop) nibble() uint8 { return o.op & 0xf0 }
func (o cop) regSrc() bool  { return o.op&SrcX != 0 }
func (o cop) is64() bool    { return o.op&0x07 == ClassALU64 }

// String names an op as Dump prints it: add_reg, lsh_imm32, neg32, jsgt_reg.
func (o cop) String() string {
	form := "_imm"
	if o.regSrc() {
		form = "_reg"
	}
	switch o.code {
	case cALU:
		if o.nibble() == ALUNeg {
			form = ""
		}
		if !o.is64() {
			form += "32"
		}
		return aluNames[rowOf(aluNames, o.nibble())].name + form
	case cJmp:
		return condTable[rowOf(condTable[:], o.nibble())].name + form
	}
	if name, ok := copNames[o.code]; ok {
		return name
	}
	return fmt.Sprintf("op%d", uint8(o.code))
}

// CompiledProgram is the pre-decoded form of a verifier-accepted program,
// executed by VM.RunCompiled.
type CompiledProgram struct {
	ops    []cop
	maps   []Map
	arrs   []*ArrayMap // maps[i] when it is an *ArrayMap (inline lookups), else nil
	insnOf []int32     // op index -> original instruction pc, for diagnostics
	src    *Program
	proof  verdict // what Compile's verification proved; zero when unverified
}

// NumOps returns the length of the pre-decoded op stream.
func (cp *CompiledProgram) NumOps() int { return len(cp.ops) }

// StaticVerdict reports whether the program provably returns the same
// constant on every invocation with no effect observable outside it, and if
// so, that constant. The proof is the verifier's (see verdict); a program
// compiled without verification proves nothing.
func (cp *CompiledProgram) StaticVerdict() (verdict uint64, ok bool) {
	if pf := cp.proof; pf.exits > 0 && !pf.spoiled {
		return pf.r0, true
	}
	return 0, false
}

// Compile verifies p with v (nil for a default Verifier) and translates it
// into its pre-decoded form. Only verifier-accepted programs compile: the
// execution engine trusts the verifier's type lattice and elides the
// interpreter's tagged-value checks.
func Compile(p *Program, v *Verifier) (*CompiledProgram, error) {
	if v == nil {
		v = &Verifier{}
	}
	return v.verify(p)
}

// compile translates without verifying. Internal callers (tests of the
// defense-in-depth bounds checks) may compile structurally valid
// but unverified programs; everything else must go through Compile.
func compile(p *Program) (*CompiledProgram, error) {
	n := len(p.Insns)
	if n == 0 {
		return nil, fmt.Errorf("ebpf compile: empty program")
	}
	// Pass 1: mark ld_imm64 continuation slots and build the pc -> op index
	// mapping (continuations are fused away).
	isCont := make([]bool, n)
	opIdx := make([]int32, n)
	nops := int32(0)
	for pc := 0; pc < n; pc++ {
		opIdx[pc] = nops
		nops++
		if p.Insns[pc].Op == OpLdImm64 {
			if pc+1 >= n {
				return nil, fmt.Errorf("ebpf compile: truncated ld_imm64 at %d", pc)
			}
			isCont[pc+1] = true
			opIdx[pc+1] = -1
			pc++
		}
	}

	cp := &CompiledProgram{
		ops:    make([]cop, 0, nops),
		maps:   p.Maps,
		arrs:   make([]*ArrayMap, len(p.Maps)),
		insnOf: make([]int32, 0, nops),
		src:    p,
	}
	for i, m := range p.Maps {
		if am, ok := m.(*ArrayMap); ok {
			cp.arrs[i] = am
		}
	}

	target := func(pc int, off int16) (int32, error) {
		t := pc + int(off) + 1
		if t < 0 || t >= n {
			return 0, fmt.Errorf("ebpf compile: jump from %d to %d outside program", pc, t)
		}
		if isCont[t] {
			return 0, fmt.Errorf("ebpf compile: jump from %d into ld_imm64 continuation %d", pc, t)
		}
		return opIdx[t], nil
	}

	for pc := 0; pc < n; pc++ {
		if isCont[pc] {
			continue
		}
		in := p.Insns[pc]
		o := cop{dst: in.Dst, src: in.Src}
		switch in.Class() {
		case ClassALU64, ClassALU:
			var err error
			o, err = compileALU(in)
			if err != nil {
				return nil, fmt.Errorf("%w at %d", err, pc)
			}
		case ClassLD:
			if in.Op != OpLdImm64 {
				return nil, fmt.Errorf("ebpf compile: unsupported LD op %#x at %d", in.Op, pc)
			}
			next := p.Insns[pc+1]
			if in.Src == PseudoMapFD {
				idx := int(in.Imm)
				if idx < 0 || idx >= len(p.Maps) {
					return nil, fmt.Errorf("ebpf compile: bad map index %d at %d", idx, pc)
				}
				o.code, o.off = cLdMap, int32(idx)
			} else {
				o.code = cMovImm
				o.imm = uint64(uint32(in.Imm)) | uint64(uint32(next.Imm))<<32
			}
		case ClassLDX:
			switch sizeOf(in.Op) {
			case 1:
				o.code = cLd8
			case 2:
				o.code = cLd16
			case 4:
				o.code = cLd32
			default:
				o.code = cLd64
			}
			o.off = int32(in.Off)
		case ClassSTX:
			switch sizeOf(in.Op) {
			case 1:
				o.code = cSt8
			case 2:
				o.code = cSt16
			case 4:
				o.code = cSt32
			default:
				o.code = cSt64
			}
			o.off = int32(in.Off)
		case ClassST:
			switch sizeOf(in.Op) {
			case 1:
				o.code = cStImm8
			case 2:
				o.code = cStImm16
			case 4:
				o.code = cStImm32
			default:
				o.code = cStImm64
			}
			o.off = int32(in.Off)
			o.imm = uint64(uint32(in.Imm)) // the interpreter zero-extends ST immediates
		case ClassJMP:
			op := in.Op & 0xf0
			switch op {
			case JmpExit:
				o.code = cExit
			case JmpCall:
				h, ok := helpers[in.Imm]
				if !ok {
					return nil, fmt.Errorf("ebpf compile: unknown helper %d at %d", in.Imm, pc)
				}
				o = cop{code: h.code, imm: uint64(uint32(in.Imm))}
			case JmpA:
				t, err := target(pc, in.Off)
				if err != nil {
					return nil, err
				}
				o.code, o.off = cJa, t
			default:
				if rowOf(condTable[:], op) < 0 {
					return nil, fmt.Errorf("ebpf compile: unknown jump op %#x at %d", in.Op, pc)
				}
				t, err := target(pc, in.Off)
				if err != nil {
					return nil, err
				}
				o.code, o.op, o.off = cJmp, in.Op, t
				if in.Op&SrcX == 0 {
					o.imm = uint64(int64(in.Imm))
				}
			}
		default:
			return nil, fmt.Errorf("ebpf compile: unknown class %#x at %d", in.Class(), pc)
		}
		cp.ops = append(cp.ops, o)
		cp.insnOf = append(cp.insnOf, int32(pc))
	}

	// Sequential fall-through past the last op would leave the (unchecked)
	// pc range; the verifier guarantees this never happens, but enforce it
	// structurally for unverified internal callers too.
	last := cp.ops[len(cp.ops)-1].code
	if last != cExit && last != cJa {
		return nil, fmt.Errorf("ebpf compile: control flow may fall off the program end")
	}
	return cp, nil
}

func compileALU(in Insn) (cop, error) {
	is64 := in.Class() == ClassALU64
	op := in.Op & 0xf0
	o := cop{code: cALU, dst: in.Dst, src: in.Src, op: in.Op}
	// The immediate is stored widened as aluSem widens it: sign-extended,
	// then truncated for 32-bit ops, and shift amounts masked.
	imm := uint64(int64(in.Imm))
	if !is64 {
		imm = uint64(uint32(imm))
	}
	switch {
	case op == ALUMov && in.Op&SrcX == 0:
		o.code, o.imm = cMovImm, imm
	case op == ALUMov && is64:
		o.code = cMovReg
	case op == ALUMov:
		o.code = cMovReg32
	case op == ALUNeg:
		// unary: aluSem ignores the source, so imm stays 0
	case rowOf(aluTable[:], op) < 0:
		return o, fmt.Errorf("ebpf compile: unknown ALU op %#x", op)
	case in.Op&SrcX == 0:
		o.imm = imm
		if m := shiftMask(op, is64); m != 0 {
			o.imm &= m
		}
	}
	return o, nil
}

// Dump renders the pre-decoded op stream for debugging classifier
// compilation (cmd/nvmetro-asm -compile).
func (cp *CompiledProgram) Dump() string {
	var sb strings.Builder
	for i, o := range cp.ops {
		fmt.Fprintf(&sb, "%4d: %-16s dst=r%-2d src=r%-2d off=%-6d imm=%#x", i, o, o.dst, o.src, o.off, o.imm)
		pc := int(cp.insnOf[i])
		src := cp.src.Insns[pc]
		if s, err := disasmOne(src, Insn{}); err == nil {
			fmt.Fprintf(&sb, "\t; insn %d: %s", pc, s)
		} else if src.Op == OpLdImm64 {
			fmt.Fprintf(&sb, "\t; insn %d: lddw/ldmap", pc)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
