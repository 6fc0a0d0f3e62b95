package ebpf

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a textual assembler and disassembler for classifier
// programs, used by cmd/nvmetro-asm and the examples. Syntax, one
// instruction per line ("; comment" to end of line):
//
//	start:                  ; label
//	mov   r0, 0             ; or mov r0, r3
//	lddw  r1, 0x1122334455  ; 64-bit immediate (two slots)
//	ldmap r1, config        ; load a map reference by name
//	add   r2, -8            ; alu: add sub mul div mod or and xor lsh rsh arsh, and unary neg r2
//	add32 r2, r3            ; 32-bit forms, result zero-extended: add32 … arsh32 mov32 neg32
//	ldxw  r3, [r1+8]        ; loads: ldxb ldxh ldxw ldxdw
//	stxdw [r10-8], r3       ; stores: stxb stxh stxw stxdw
//	stw   [r1+0], 7         ; immediate stores: stb sth stw stdw
//	jeq   r3, 1, start      ; jumps: ja jeq jne jgt jge jlt jle jsgt jsge jslt jsle jset
//	call  map_lookup_elem   ; helper by name or number
//	exit

// aluNames is every ALU mnemonic: the table rows plus the two ops that are
// not binary. A "32" suffix selects the 32-bit class, in both directions.
var aluNames = append(aluTable[:nALU:nALU], movRow, negRow)

func aluMnemonic(m string) (class, op uint8, ok bool) {
	class = ClassALU64
	if base, is32 := strings.CutSuffix(m, "32"); is32 {
		m, class = base, ClassALU
	}
	row := rowNamed(aluNames, m)
	if row < 0 {
		return 0, 0, false
	}
	return class, aluNames[row].code, true
}

func aluName(class, op uint8) string {
	row := rowOf(aluNames, op)
	switch {
	case row < 0:
		return ""
	case class == ClassALU:
		return aluNames[row].name + "32"
	}
	return aluNames[row].name
}

var sizeSuffix = map[string]uint8{"b": SizeB, "h": SizeH, "w": SizeW, "dw": SizeDW}

// Assemble parses source into a program. maps resolves `ldmap` names;
// helpers resolves `call` names (nil for DefaultHelpers).
func Assemble(src, name string, maps map[string]Map, helpers *HelperRegistry) (*Program, error) {
	if helpers == nil {
		helpers = DefaultHelpers()
	}
	helperByName := make(map[string]int32)
	for id, h := range helpers.impls {
		helperByName[h.name] = id
	}
	b := NewBuilder()
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			b.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		if err := asmLine(b, line, maps, helperByName); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return b.Program(name)
}

// MustAssemble panics on assembly failure (static program definitions).
func MustAssemble(src, name string, maps map[string]Map, helpers *HelperRegistry) *Program {
	p, err := Assemble(src, name, maps, helpers)
	if err != nil {
		panic(err)
	}
	return p
}

func asmLine(b *Builder, line string, maps map[string]Map, helperByName map[string]int32) error {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	op := strings.ToLower(fields[0])
	args := fields[1:]

	reg := func(s string) (uint8, error) {
		if !strings.HasPrefix(s, "r") {
			return 0, fmt.Errorf("expected register, got %q", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n >= NumRegs {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return uint8(n), nil
	}
	imm := func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			// Allow big unsigned hex constants.
			u, uerr := strconv.ParseUint(s, 0, 64)
			if uerr != nil {
				return 0, fmt.Errorf("bad immediate %q", s)
			}
			return int64(u), nil
		}
		return v, nil
	}
	// memRef parses "[rX+off]" or "[rX-off]" or "[rX]".
	memRef := func(s string) (uint8, int16, error) {
		if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
			return 0, 0, fmt.Errorf("expected memory operand, got %q", s)
		}
		inner := s[1 : len(s)-1]
		sep := strings.IndexAny(inner[1:], "+-")
		if sep < 0 {
			r, err := reg(inner)
			return r, 0, err
		}
		sep++
		r, err := reg(inner[:sep])
		if err != nil {
			return 0, 0, err
		}
		off, err := strconv.ParseInt(inner[sep:], 0, 16)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
		return r, int16(off), nil
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d operands, got %d", op, n, len(args))
		}
		return nil
	}

	aluClass, aluOp, isALU := aluMnemonic(op)
	jmpRow := rowNamed(condTable[:], op)

	switch {
	case op == "exit":
		if err := need(0); err != nil {
			return err
		}
		b.Exit()
	case op == "call":
		if err := need(1); err != nil {
			return err
		}
		if id, ok := helperByName[args[0]]; ok {
			b.Call(id)
		} else if v, err := imm(args[0]); err == nil {
			b.Call(int32(v))
		} else {
			return fmt.Errorf("unknown helper %q", args[0])
		}
	case op == "ja":
		if err := need(1); err != nil {
			return err
		}
		b.Jump(args[0])
	case op == "lddw":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		v, err := imm(args[1])
		if err != nil {
			return err
		}
		b.MovImm64(d, uint64(v))
	case op == "ldmap":
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		m, ok := maps[args[1]]
		if !ok {
			return fmt.Errorf("unknown map %q", args[1])
		}
		b.LoadMap(d, m)
	case isALU && aluOp == ALUNeg:
		if err := need(1); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		b.emit(Insn{Op: aluClass | ALUNeg, Dst: d})
	case isALU:
		if err := need(2); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		if s, err := reg(args[1]); err == nil {
			b.emit(Insn{Op: aluClass | aluOp | SrcX, Dst: d, Src: s})
		} else if v, err := imm(args[1]); err == nil {
			b.emit(Insn{Op: aluClass | aluOp | SrcK, Dst: d, Imm: int32(v)})
		} else {
			return err
		}
	case strings.HasPrefix(op, "ldx"):
		if err := need(2); err != nil {
			return err
		}
		size, ok := sizeSuffix[op[3:]]
		if !ok {
			return fmt.Errorf("bad load %q", op)
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		s, off, err := memRef(args[1])
		if err != nil {
			return err
		}
		b.Load(size, d, s, off)
	case strings.HasPrefix(op, "stx"):
		if err := need(2); err != nil {
			return err
		}
		size, ok := sizeSuffix[op[3:]]
		if !ok {
			return fmt.Errorf("bad store %q", op)
		}
		d, off, err := memRef(args[0])
		if err != nil {
			return err
		}
		s, err := reg(args[1])
		if err != nil {
			return err
		}
		b.Store(size, d, off, s)
	case strings.HasPrefix(op, "st"):
		if err := need(2); err != nil {
			return err
		}
		size, ok := sizeSuffix[op[2:]]
		if !ok {
			return fmt.Errorf("bad store %q", op)
		}
		d, off, err := memRef(args[0])
		if err != nil {
			return err
		}
		v, err := imm(args[1])
		if err != nil {
			return err
		}
		b.StoreImm(size, d, off, int32(v))
	case jmpRow >= 0:
		if err := need(3); err != nil {
			return err
		}
		d, err := reg(args[0])
		if err != nil {
			return err
		}
		if s, err := reg(args[1]); err == nil {
			b.JumpReg(condTable[jmpRow].code, d, s, args[2])
		} else if v, err := imm(args[1]); err == nil {
			b.JumpImm(condTable[jmpRow].code, d, int32(v), args[2])
		} else {
			return err
		}
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	return b.err
}

// Disassemble renders a program as assembler text (labels synthesized as
// Lnn for jump targets).
func Disassemble(p *Program) string {
	labels := make(map[int]string)
	for pc, in := range p.Insns {
		if in.Class() == ClassJMP {
			op := in.Op & 0xf0
			if op != JmpExit && op != JmpCall {
				t := pc + int(in.Off) + 1
				if _, ok := labels[t]; !ok {
					labels[t] = fmt.Sprintf("L%d", len(labels))
				}
			}
		}
	}
	var sb strings.Builder
	for pc := 0; pc < len(p.Insns); pc++ {
		if l, ok := labels[pc]; ok {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		in := p.Insns[pc]
		if in.Op == OpLdImm64 {
			next := p.Insns[pc+1]
			if in.Src == PseudoMapFD {
				fmt.Fprintf(&sb, "\tldmap r%d, map%d\n", in.Dst, in.Imm)
			} else {
				v := uint64(uint32(in.Imm)) | uint64(uint32(next.Imm))<<32
				fmt.Fprintf(&sb, "\tlddw r%d, %#x\n", in.Dst, v)
			}
			pc++
			continue
		}
		s, err := disasmOne(in, Insn{})
		if err != nil {
			s = fmt.Sprintf(".raw %#02x %d %d %d %d", in.Op, in.Dst, in.Src, in.Off, in.Imm)
		}
		if in.Class() == ClassJMP {
			op := in.Op & 0xf0
			if op != JmpExit && op != JmpCall {
				s += " " + labels[pc+int(in.Off)+1]
			}
		}
		fmt.Fprintf(&sb, "\t%s\n", s)
	}
	return sb.String()
}

func sizeName(op uint8) string {
	switch op & 0x18 {
	case SizeB:
		return "b"
	case SizeH:
		return "h"
	case SizeW:
		return "w"
	}
	return "dw"
}

func disasmOne(in Insn, _ Insn) (string, error) {
	switch in.Class() {
	case ClassALU64, ClassALU:
		op := in.Op & 0xf0
		name := aluName(in.Class(), op)
		if name == "" {
			return "", fmt.Errorf("bad alu %#x", in.Op)
		}
		if op == ALUNeg {
			return fmt.Sprintf("%s r%d", name, in.Dst), nil
		}
		if in.Op&SrcX != 0 {
			return fmt.Sprintf("%s r%d, r%d", name, in.Dst, in.Src), nil
		}
		return fmt.Sprintf("%s r%d, %d", name, in.Dst, in.Imm), nil
	case ClassLDX:
		return fmt.Sprintf("ldx%s r%d, [r%d%+d]", sizeName(in.Op), in.Dst, in.Src, in.Off), nil
	case ClassSTX:
		return fmt.Sprintf("stx%s [r%d%+d], r%d", sizeName(in.Op), in.Dst, in.Off, in.Src), nil
	case ClassST:
		return fmt.Sprintf("st%s [r%d%+d], %d", sizeName(in.Op), in.Dst, in.Off, in.Imm), nil
	case ClassJMP:
		op := in.Op & 0xf0
		switch op {
		case JmpExit:
			return "exit", nil
		case JmpCall:
			return fmt.Sprintf("call %d", in.Imm), nil
		case JmpA:
			return "ja", nil
		}
		row := rowOf(condTable[:], op)
		if row < 0 {
			return "", fmt.Errorf("bad jmp %#x", in.Op)
		}
		name := condTable[row].name
		if in.Op&SrcX != 0 {
			return fmt.Sprintf("%s r%d, r%d,", name, in.Dst, in.Src), nil
		}
		return fmt.Sprintf("%s r%d, %d,", name, in.Dst, in.Imm), nil
	}
	return "", fmt.Errorf("bad class %#x", in.Op)
}
