package ebpf

import "slices"

// One statement of what an ALU op and a conditional jump mean, and of which
// bytes a memory access may touch. Both execution tiers (VM.alu and VM.branch
// in the interpreter, the cALU and cJmp cases of RunCompiled) and the
// verifier (its known-scalar fold in checkALU, the branch edges it proves dead
// in checkBranch) call aluSem/condSem and compare through cmpOperand; the
// verifier, the compiler, the assembler, the disassembler and Dump index the
// two op tables; the verifier, both tiers and the helpers bound every access
// with inWindow. Nothing else in the package states these semantics.

// opRow is one operation: its opcode nibble and its assembler mnemonic.
type opRow struct {
	code uint8
	name string
}

// aluTable lists the binary ALU ops and condTable the conditional jumps: the
// ops the verifier and the compiler accept, under the names the assembler,
// the disassembler and Dump use.
var aluTable = [...]opRow{
	{ALUAdd, "add"}, {ALUSub, "sub"}, {ALUMul, "mul"}, {ALUDiv, "div"},
	{ALUMod, "mod"}, {ALUOr, "or"}, {ALUAnd, "and"}, {ALUXor, "xor"},
	{ALULsh, "lsh"}, {ALURsh, "rsh"}, {ALUArsh, "arsh"},
}

var condTable = [...]opRow{
	{JmpEq, "jeq"}, {JmpNe, "jne"}, {JmpGt, "jgt"}, {JmpGe, "jge"},
	{JmpLt, "jlt"}, {JmpLe, "jle"}, {JmpSGt, "jsgt"}, {JmpSGe, "jsge"},
	{JmpSLt, "jslt"}, {JmpSLe, "jsle"}, {JmpSet, "jset"},
}

// The two ALU ops that are not binary: mov copies a tagged value, neg is unary.
var movRow, negRow = opRow{ALUMov, "mov"}, opRow{ALUNeg, "neg"}

const nALU = len(aluTable)

// rowOf returns the index of the row with the given opcode nibble, or -1.
func rowOf(table []opRow, code uint8) int {
	return slices.IndexFunc(table, func(r opRow) bool { return r.code == code })
}

// rowNamed returns the index of the row with the given mnemonic, or -1.
func rowNamed(table []opRow, name string) int {
	return slices.IndexFunc(table, func(r opRow) bool { return r.name == name })
}

// shiftMask is what a shift op masks its amount with (0 for any other op):
// 63 at either width, except that 32-bit arsh uses 31. The 32-bit lsh/rsh
// therefore yield 0 for amounts 32..63 instead of wrapping.
func shiftMask(op uint8, is64 bool) uint64 {
	switch {
	case op == ALUArsh && !is64:
		return 31
	case op == ALULsh || op == ALURsh || op == ALUArsh:
		return 63
	}
	return 0
}

// aluSem computes dst = dst <op> src on scalars (ALUNeg ignores b; ALUMov is
// not here, it copies tagged values). 32-bit ops see both operands truncated
// and zero-extend their result. Division by zero yields 0 and modulo by zero
// leaves the dividend, as in the kernel. ok is false for an undefined op.
func aluSem(op uint8, is64 bool, a, b uint64) (out uint64, ok bool) {
	if !is64 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
	}
	switch op {
	case ALUAdd:
		out = a + b
	case ALUSub:
		out = a - b
	case ALUMul:
		out = a * b
	case ALUDiv:
		if b != 0 {
			out = a / b
		}
	case ALUMod:
		out = a
		if b != 0 {
			out = a % b
		}
	case ALUOr:
		out = a | b
	case ALUAnd:
		out = a & b
	case ALUXor:
		out = a ^ b
	case ALULsh:
		out = a << (b & shiftMask(op, is64))
	case ALURsh:
		out = a >> (b & shiftMask(op, is64))
	case ALUArsh:
		sh := b & shiftMask(op, is64)
		out = uint64(int64(a) >> sh)
		if !is64 {
			out = uint64(int32(a) >> sh)
		}
	case ALUNeg:
		out = -a
	default:
		return 0, false
	}
	if !is64 {
		out = uint64(uint32(out))
	}
	return out, true
}

// condSem evaluates a conditional jump's predicate on two 64-bit operands.
// ok is false for an undefined op.
func condSem(op uint8, a, b uint64) (taken, ok bool) {
	switch op {
	case JmpEq:
		return a == b, true
	case JmpNe:
		return a != b, true
	case JmpGt:
		return a > b, true
	case JmpGe:
		return a >= b, true
	case JmpLt:
		return a < b, true
	case JmpLe:
		return a <= b, true
	case JmpSGt:
		return int64(a) > int64(b), true
	case JmpSGe:
		return int64(a) >= int64(b), true
	case JmpSLt:
		return int64(a) < int64(b), true
	case JmpSLe:
		return int64(a) <= int64(b), true
	case JmpSet:
		return a&b != 0, true
	}
	return false, false
}

// inWindow reports whether size bytes at start lie inside a window of limit
// bytes. start is the wrapping int64 sum the runtimes compute, so the test
// never adds to it: start+size wraps negative for offsets near 2^63.
func inWindow(start int64, size, limit int) bool {
	return start >= 0 && start <= int64(limit)-int64(size)
}

// cmpOperand is a branch operand as condSem sees it: a scalar by value, a
// pointer by a synthetic non-zero address, so that a null check (ptr == 0)
// on a live pointer is never taken. (The verifier restricts pointer
// comparisons to null checks.)
func cmpOperand(isPtr bool, n uint64) uint64 {
	if isPtr {
		return 0x5a5a_0000_0000_0000 + n
	}
	return n
}
