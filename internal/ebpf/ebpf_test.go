package ebpf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func verifyAndRun(t *testing.T, p *Program, ctx []byte, ctxSize int) uint64 {
	t.Helper()
	v := &Verifier{CtxSize: ctxSize}
	if err := v.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	vm := NewVM(nil)
	r, err := vm.Run(p, ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func TestReturnConstant(t *testing.T) {
	p := NewBuilder().Return(42).MustProgram("ret42")
	if got := verifyAndRun(t, p, nil, 0); got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestALUArithmetic(t *testing.T) {
	// r0 = ((7+5)*3 - 4) / 2 % 7 ^ 1 | 8 & 0xf = (((32/2)=16 %7=2) ^1=3 |8=11) &0xf=11
	p := NewBuilder().
		MovImm(R0, 7).AddImm(R0, 5).
		ALUImm(ALUMul, R0, 3).
		ALUImm(ALUSub, R0, 4).
		ALUImm(ALUDiv, R0, 2).
		ALUImm(ALUMod, R0, 7).
		ALUImm(ALUXor, R0, 1).
		ALUImm(ALUOr, R0, 8).
		ALUImm(ALUAnd, R0, 0xf).
		Exit().MustProgram("alu")
	if got := verifyAndRun(t, p, nil, 0); got != 11 {
		t.Fatalf("got %d", got)
	}
}

func TestDivModByZero(t *testing.T) {
	p := NewBuilder().
		MovImm(R0, 100).MovImm(R2, 0).
		ALU(ALUDiv, R0, R2). // eBPF semantics: x/0 = 0
		Exit().MustProgram("div0")
	if got := verifyAndRun(t, p, nil, 0); got != 0 {
		t.Fatalf("div by zero: got %d", got)
	}
	p2 := NewBuilder().
		MovImm(R0, 100).MovImm(R2, 0).
		ALU(ALUMod, R0, R2). // x%0 = x
		Exit().MustProgram("mod0")
	if got := verifyAndRun(t, p2, nil, 0); got != 100 {
		t.Fatalf("mod by zero: got %d", got)
	}
}

func TestShifts(t *testing.T) {
	p := NewBuilder().
		MovImm(R0, -16).
		ALUImm(ALUArsh, R0, 2). // -4
		Exit().MustProgram("arsh")
	if got := verifyAndRun(t, p, nil, 0); got != uint64(0xfffffffffffffffc) {
		t.Fatalf("arsh: got %#x", got)
	}
}

func TestMovImm64(t *testing.T) {
	p := NewBuilder().
		MovImm64(R0, 0xdeadbeefcafebabe).
		Exit().MustProgram("imm64")
	if got := verifyAndRun(t, p, nil, 0); got != 0xdeadbeefcafebabe {
		t.Fatalf("got %#x", got)
	}
}

func TestCtxReadWrite(t *testing.T) {
	// Read u32 at ctx[4], add 1, write to ctx[8], return old value.
	p := NewBuilder().
		Load(SizeW, R0, R1, 4).
		MovReg(R2, R0).
		AddImm(R2, 1).
		Store(SizeW, R1, 8, R2).
		Exit().MustProgram("ctxrw")
	ctx := make([]byte, 16)
	binary.LittleEndian.PutUint32(ctx[4:], 77)
	if got := verifyAndRun(t, p, ctx, 16); got != 77 {
		t.Fatalf("got %d", got)
	}
	if binary.LittleEndian.Uint32(ctx[8:]) != 78 {
		t.Fatal("ctx write (direct mediation) failed")
	}
}

func TestStackSpill(t *testing.T) {
	p := NewBuilder().
		MovImm(R2, 1234).
		Store(SizeDW, R10, -8, R2).
		Load(SizeDW, R0, R10, -8).
		Exit().MustProgram("stack")
	if got := verifyAndRun(t, p, nil, 0); got != 1234 {
		t.Fatalf("got %d", got)
	}
}

func TestBranches(t *testing.T) {
	// if ctx[0] > 10 return 1 else return 2
	p := NewBuilder().
		Load(SizeB, R2, R1, 0).
		JumpImm(JmpGt, R2, 10, "big").
		Return(2).
		Label("big").
		Return(1).MustProgram("branch")
	if got := verifyAndRun(t, p, []byte{50}, 1); got != 1 {
		t.Fatalf("taken: %d", got)
	}
	vm := NewVM(nil)
	if got, _ := vm.Run(p, []byte{5}); got != 2 {
		t.Fatalf("not taken: %d", got)
	}
}

func TestSignedBranch(t *testing.T) {
	p := NewBuilder().
		MovImm(R2, -5).
		JumpImm(JmpSLt, R2, 0, "neg").
		Return(0).
		Label("neg").
		Return(1).MustProgram("signed")
	if got := verifyAndRun(t, p, nil, 0); got != 1 {
		t.Fatal("signed compare failed")
	}
}

func TestMapLookupUpdate(t *testing.T) {
	m := NewArrayMap(8, 4)
	m.SetU64(2, 0, 9999)
	// key = 2 on stack; v = lookup(map, &key); if !v return -1; return *v
	p := NewBuilder().
		MovImm(R2, 2).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpNe, R0, 0, "found").
		Return(-1).
		Label("found").
		Load(SizeDW, R0, R0, 0).
		Exit().MustProgram("maplookup")
	if got := verifyAndRun(t, p, nil, 0); got != 9999 {
		t.Fatalf("got %d", got)
	}
}

func TestMapValueWriteThrough(t *testing.T) {
	m := NewArrayMap(8, 1)
	p := NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		// *v += 1 (persistent state across invocations)
		Load(SizeDW, R3, R0, 0).
		AddImm(R3, 1).
		Store(SizeDW, R0, 0, R3).
		MovReg(R0, R3).
		Exit().
		Label("miss").
		Return(0).MustProgram("mapwrite")
	v := &Verifier{CtxSize: 0}
	if err := v.Verify(p); err != nil {
		t.Fatal(err)
	}
	vm := NewVM(nil)
	for i := uint64(1); i <= 5; i++ {
		got, err := vm.Run(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Fatalf("invocation %d: got %d", i, got)
		}
	}
	if m.U64(0, 0) != 5 {
		t.Fatal("map state not persistent")
	}
}

func TestHashMapHelpers(t *testing.T) {
	m := NewHashMap(4, 8, 16)
	// update(map, key=7, value=55); return lookup(map, 7)->val
	p := NewBuilder().
		MovImm(R2, 7).
		Store(SizeW, R10, -4, R2).
		MovImm(R3, 55).
		Store(SizeDW, R10, -16, R3).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		MovReg(R3, R10).AddImm(R3, -16).
		MovImm(R4, 0).
		Call(HelperMapUpdate).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R0, R0, 0).
		Exit().
		Label("miss").Return(-1).MustProgram("hash")
	if got := verifyAndRun(t, p, nil, 0); got != 55 {
		t.Fatalf("got %d", got)
	}
	if m.Len() != 1 {
		t.Fatal("map should have 1 entry")
	}
}

// --- Verifier rejection tests ---

func wantReject(t *testing.T, p *Program, ctxSize int, frag string) {
	t.Helper()
	v := &Verifier{CtxSize: ctxSize}
	err := v.Verify(p)
	if err == nil {
		t.Fatalf("verifier accepted unsafe program (want %q)", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestVerifierRejectsUninitRead(t *testing.T) {
	p := NewBuilder().MovReg(R0, R3).Exit().MustProgram("uninit")
	wantReject(t, p, 0, "uninitialized")
}

func TestVerifierRejectsOOBCtx(t *testing.T) {
	p := NewBuilder().Load(SizeW, R0, R1, 13).Exit().MustProgram("oob")
	wantReject(t, p, 16, "ctx access")
	p2 := NewBuilder().Load(SizeW, R0, R1, -4).Exit().MustProgram("oob2")
	wantReject(t, p2, 16, "ctx access")
}

func TestVerifierRejectsOOBStack(t *testing.T) {
	p := NewBuilder().MovImm(R2, 0).Store(SizeDW, R10, 8, R2).Return(0).MustProgram("oobstack")
	wantReject(t, p, 0, "stack access")
	p2 := NewBuilder().MovImm(R2, 0).Store(SizeDW, R10, -520, R2).Return(0).MustProgram("oobstack2")
	wantReject(t, p2, 0, "stack access")
}

func TestVerifierRejectsUninitStackRead(t *testing.T) {
	p := NewBuilder().Load(SizeDW, R0, R10, -8).Exit().MustProgram("stackread")
	wantReject(t, p, 0, "uninitialized stack")
}

func TestVerifierRejectsLoop(t *testing.T) {
	p := NewBuilder().
		Label("top").
		MovImm(R0, 0).
		Jump("top").MustProgram("loop")
	wantReject(t, p, 0, "back-edge")
}

func TestVerifierRejectsCondLoop(t *testing.T) {
	p := NewBuilder().
		MovImm(R2, 10).
		Label("top").
		ALUImm(ALUSub, R2, 1).
		JumpImm(JmpNe, R2, 0, "top").
		Return(0).MustProgram("condloop")
	wantReject(t, p, 0, "back-edge")
}

func TestVerifierRejectsMissingNullCheck(t *testing.T) {
	m := NewArrayMap(8, 1)
	p := NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		Load(SizeDW, R0, R0, 0). // deref without null check
		Exit().MustProgram("nonull")
	wantReject(t, p, 0, "null check")
}

func TestVerifierRejectsMapValueOOB(t *testing.T) {
	m := NewArrayMap(8, 1)
	p := NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R2, R0, 8). // value is only 8 bytes: [8,16) OOB
		Label("miss").
		Return(0).MustProgram("mapoob")
	wantReject(t, p, 0, "map value access")
}

func TestVerifierRejectsFallOffEnd(t *testing.T) {
	p := &Program{Insns: []Insn{{Op: ClassALU64 | ALUMov | SrcK, Dst: R0, Imm: 1}}}
	wantReject(t, p, 0, "falls off")
}

func TestVerifierRejectsPointerStore(t *testing.T) {
	p := NewBuilder().
		MovReg(R2, R10).
		Store(SizeDW, R10, -8, R2).
		Return(0).MustProgram("ptrstore")
	wantReject(t, p, 0, "storing")
}

func TestVerifierRejectsPointerExit(t *testing.T) {
	p := NewBuilder().MovReg(R0, R1).Exit().MustProgram("ptrexit")
	wantReject(t, p, 8, "exit with r0")
}

func TestVerifierRejectsWriteToR10(t *testing.T) {
	p := NewBuilder().MovImm(R10, 0).Return(0).MustProgram("wr10")
	wantReject(t, p, 0, "read-only")
}

func TestVerifierRejectsUnboundedPtrArith(t *testing.T) {
	b := NewBuilder()
	b.Load(SizeW, R2, R1, 0) // unknown scalar from ctx
	b.ALU(ALUAdd, R1, R2)    // r1 (ctx ptr) += unknown
	b.Load(SizeW, R0, R1, 0)
	b.Exit()
	wantReject(t, b.MustProgram("ptrarith"), 8, "unbounded")
}

// neg reads its destination like every other ALU op: on an uninitialized
// register the compiled tier would negate whatever the previous invocation
// left in the slot, and on a map reference the tiers disagree (the interpreter
// faults, the compiled tier negates the untagged word).
func TestVerifierRejectsNegUninit(t *testing.T) {
	for _, cls := range []uint8{ClassALU64, ClassALU} {
		b := NewBuilder()
		b.emit(Insn{Op: cls | ALUNeg, Dst: R6})
		p := b.MovReg(R0, R6).MovImm(R6, 5).Exit().MustProgram("neguninit")
		wantReject(t, p, 0, "uninitialized r6")
	}
}

func TestVerifierRejectsNegMapRef(t *testing.T) {
	b := NewBuilder().LoadMap(R1, NewArrayMap(8, 1))
	b.emit(Insn{Op: ClassALU64 | ALUNeg, Dst: R1})
	wantReject(t, b.MovReg(R0, R1).Exit().MustProgram("negmap"), 0, "arithmetic on map_ptr")
}

func TestVerifierRejectsUnknownJumpOp(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: ClassALU64 | ALUMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP | 0xe0 | SrcK, Dst: R0, Off: 0},
		{Op: ClassJMP | JmpExit},
	}}
	wantReject(t, p, 0, "unknown jump op")
}

// TestVerifierRejectsFoldedArsh32OOB: a 32-bit arsh of 0x80000000 by 31 is
// 0xffffffff (the runtimes shift an int32 by b&31), so r10-16 plus it lies
// 4 GiB past the stack. A verifier folding it as a 64-bit shift saw +1, an
// initialized byte of the slot.
func TestVerifierRejectsFoldedArsh32OOB(t *testing.T) {
	b := NewBuilder().StoreImm(SizeDW, R10, -16, 0)
	b.emit(Insn{Op: ClassALU | ALUMov | SrcK, Dst: R2, Imm: -0x80000000})
	b.ALU32Imm(ALUArsh, R2, 31)
	p := b.MovReg(R3, R10).AddImm(R3, -16).ALU(ALUAdd, R3, R2).
		Load(SizeB, R0, R3, 0).Exit().MustProgram("arsh32oob")
	wantReject(t, p, 0, "stack access")
}

// TestVerifierFoldMatchesRun holds the verifier's known-scalar fold to what
// both runtimes compute, on the corners where a hand-copied fold went (arsh32)
// or could go wrong: width-dependent shift masks, truncated divisors, neg32.
func TestVerifierFoldMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   uint8
		is64 bool
		a, b uint64
	}{
		{"arsh32 sign", ALUArsh, false, 0x80000000, 31},
		{"arsh32 masks with 31", ALUArsh, false, 0x80000000, 33},
		{"arsh32 ignores high dst bits", ALUArsh, false, 0xffffffff_00000010, 4},
		{"arsh64", ALUArsh, true, 1 << 63, 63},
		{"lsh32 by 31", ALULsh, false, 3, 31},
		{"lsh32 by 32", ALULsh, false, 1, 32},
		{"lsh32 by 64", ALULsh, false, 1, 64},
		{"rsh32 by 31", ALURsh, false, 0xffffffff_80000000, 31},
		{"rsh32 by 63", ALURsh, false, 0x80000000, 63},
		{"div32 by zero", ALUDiv, false, 7, 0},
		{"div32 by 2^32", ALUDiv, false, 7, 1 << 32},
		{"mod32 by zero", ALUMod, false, 0xdead_0000_0007, 0},
		{"mod32 by 2^32", ALUMod, false, 0xdead_0000_0007, 1 << 32},
		{"div64 by zero", ALUDiv, true, 7, 0},
		{"mod64 by zero", ALUMod, true, 7, 0},
		{"neg32", ALUNeg, false, 1, 0},
		{"neg32 of 2^32", ALUNeg, false, 1 << 32, 0},
		{"neg64", ALUNeg, true, 1, 0},
	} {
		cls := uint8(ClassALU)
		if tc.is64 {
			cls = ClassALU64
		}
		in := Insn{Op: cls | tc.op | SrcX, Dst: R2, Src: R3}
		st := &vstate{}
		st.regs[R2] = vreg{t: rtScalar, known: true, val: tc.a}
		st.regs[R3] = vreg{t: rtScalar, known: true, val: tc.b}
		if err := (&Verifier{}).checkALU(st, in, 0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := NewBuilder().MovImm64(R2, tc.a).MovImm64(R3, tc.b)
		b.emit(in)
		got, err := runBoth(t, b.MovReg(R0, R2).Exit().MustProgram(tc.name), nil, 0)
		if err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if folded := st.regs[R2]; !folded.known || folded.val != got {
			t.Errorf("%s: verifier folds %#x (known=%v), runtimes compute %#x", tc.name, folded.val, folded.known, got)
		}
	}
}

// wrapOff is a pointer offset within 8 bytes of 2^63: an 8-byte access at it
// ends past 2^63, so start+size wraps negative.
const wrapOff = 0x7ffffffffffffffc

// wrapPrograms move a ctx, map-value or stack pointer to wrapOff and access
// 8 bytes there.
func wrapPrograms() map[string]*Program {
	toWrap := func(b *Builder, ptr uint8, off uint64) *Builder {
		return b.MovImm64(R2, off).ALU(ALUAdd, ptr, R2)
	}
	lookup := NewBuilder().StoreImm(SizeW, R10, -4, 0).LoadMap(R1, NewArrayMap(16, 8)).
		MovReg(R2, R10).AddImm(R2, -4).Call(HelperMapLookup).JumpImm(JmpEq, R0, 0, "miss")
	return map[string]*Program{
		"ctx load":  toWrap(NewBuilder(), R1, wrapOff).Load(SizeDW, R0, R1, 0).Exit().MustProgram("wrap-ctx-load"),
		"ctx store": toWrap(NewBuilder(), R1, wrapOff).StoreImm(SizeDW, R1, 0, 1).Return(0).MustProgram("wrap-ctx-store"),
		"map value load": toWrap(lookup, R0, wrapOff).Load(SizeDW, R0, R0, 0).Exit().
			Label("miss").Return(0).MustProgram("wrap-map-value"),
		"stack load": toWrap(NewBuilder().MovReg(R3, R10), R3, wrapOff-StackSize).
			Load(SizeDW, R0, R3, 0).Exit().MustProgram("wrap-stack"),
	}
}

// TestVerifierRejectsWrappingOffsets: bounds written as start+size > limit
// pass when start+size wraps. The verifier accepted the ctx and map-value
// shapes (and panicked on the stack one), then both tiers sliced out of
// range. Now the verifier refuses all four, and each tier's backstop faults
// on the unverified program.
func TestVerifierRejectsWrappingOffsets(t *testing.T) {
	for name, p := range wrapPrograms() {
		if err := (&Verifier{CtxSize: diffCtxSize}).Verify(p); !errors.Is(err, ErrVerify) {
			t.Errorf("%s: Verify = %v, want a rejection", name, err)
		}
		cp, err := compile(p, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if _, err := NewVM(nil).Run(p, make([]byte, diffCtxSize)); !errors.Is(err, ErrFault) {
			t.Errorf("%s: interpreter: %v, want ErrFault", name, err)
		}
		if _, err := NewVM(nil).RunCompiled(cp, make([]byte, diffCtxSize)); !errors.Is(err, ErrFault) {
			t.Errorf("%s: compiled tier: %v, want ErrFault", name, err)
		}
	}
}

// TestVerifierRejectsInvalidRegister: the encoding has room for r0..r15 and
// the verifier indexed its register file with whatever it decoded.
func TestVerifierRejectsInvalidRegister(t *testing.T) {
	for _, in := range []Insn{
		{Op: ClassALU64 | ALUMov | SrcX, Dst: R0, Src: 11},
		{Op: ClassLDX | SizeDW | ModeMEM, Dst: R0, Src: 15},
		{Op: ClassST | SizeDW | ModeMEM, Dst: 12, Imm: 1},
	} {
		p := &Program{Insns: []Insn{in, {Op: ClassJMP | JmpExit}}}
		wantReject(t, p, 8, "invalid register")
	}
}

func TestVerifierRejectsTooLong(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < MaxInsns+1; i++ {
		b.MovImm(R0, 0)
	}
	b.Exit()
	wantReject(t, b.MustProgram("long"), 0, "too long")
}

func TestVerifierRejectsJumpIntoLdImm64(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: ClassALU64 | ALUMov | SrcK, Dst: R2, Imm: 0},
		{Op: ClassJMP | JmpEq | SrcK, Dst: R2, Off: 1, Imm: 1}, // to continuation slot
		{Op: OpLdImm64, Dst: R0, Imm: 1},
		{},
		{Op: ClassJMP | JmpExit},
	}}
	wantReject(t, p, 0, "middle of ld_imm64")
}

func TestRuntimeFuelLimit(t *testing.T) {
	// Unverified program with an infinite loop must hit the fuel limit.
	p := &Program{Insns: []Insn{
		{Op: ClassALU64 | ALUMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP | JmpA, Off: -2},
	}}
	vm := NewVM(nil)
	if _, err := vm.Run(p, nil); err != ErrFuel {
		t.Fatalf("want fuel error, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op, dst, src uint8, off int16, imm int32) bool {
		in := Insn{Op: op, Dst: dst & 0xf, Src: src & 0xf, Off: off, Imm: imm}
		b := in.Encode()
		return DecodeInsn(b[:]) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramEncodeDecode(t *testing.T) {
	p := NewBuilder().
		MovImm64(R2, 0x1234567890ab).
		MovReg(R0, R2).
		Exit().MustProgram("codec")
	code := p.Encode()
	p2, err := Decode(code, "codec")
	if err != nil {
		t.Fatal(err)
	}
	if got := verifyAndRun(t, p2, nil, 0); got != 0x1234567890ab {
		t.Fatalf("got %#x", got)
	}
}

func TestAssembler(t *testing.T) {
	m := NewArrayMap(8, 4)
	m.SetU64(1, 0, 4242)
	src := `
; classify: return config[1] + ctx[0]
	mov   r6, 0
	ldxb  r6, [r1+0]
	mov   r2, 1
	stxw  [r10-4], r2
	ldmap r1, config
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, miss
	ldxdw r0, [r0+0]
	add   r0, r6
	exit
miss:
	mov r0, -1
	exit
`
	p, err := Assemble(src, "asmtest", map[string]Map{"config": m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []byte{5}
	if got := verifyAndRun(t, p, ctx, 1); got != 4247 {
		t.Fatalf("got %d", got)
	}
}

func TestAssemblerErrors(t *testing.T) {
	for _, src := range []string{
		"bogus r0, 1",
		"mov r99, 1",
		"ldxw r0, r1",
		"jeq r0, 0, nowhere\nexit",
		"ldmap r1, nosuchmap",
		"call nosuchhelper",
	} {
		if _, err := Assemble(src, "bad", nil, nil); err == nil {
			t.Errorf("assembled invalid source %q", src)
		}
	}
}

func TestDisassembleReassemble(t *testing.T) {
	p := NewBuilder().
		Load(SizeB, R2, R1, 0).
		JumpImm(JmpGt, R2, 10, "big").
		Return(2).
		Label("big").
		MovImm(R3, 7).
		Store(SizeW, R10, -4, R3).
		Load(SizeW, R0, R10, -4).
		Exit().MustProgram("roundtrip")
	text := Disassemble(p)
	p2, err := Assemble(text, "roundtrip2", nil, nil)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	for _, ctx := range [][]byte{{5}, {50}} {
		vm := NewVM(nil)
		a, err1 := vm.Run(p, append([]byte{}, ctx...))
		b, err2 := vm.Run(p2, append([]byte{}, ctx...))
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("ctx %v: %d/%v vs %d/%v", ctx, a, err1, b, err2)
		}
	}

	// Every row of the two op tables (and mov, neg) at both widths and in both
	// source forms must come back byte for byte, or nvmetro-asm's output is
	// not the program that was verified.
	b := NewBuilder()
	for _, cls := range []uint8{ClassALU64, ClassALU} {
		for _, r := range aluNames {
			if r.code == ALUNeg {
				b.emit(Insn{Op: cls | ALUNeg, Dst: R4})
				continue
			}
			b.emit(Insn{Op: cls | r.code | SrcX, Dst: R3, Src: R7})
			b.emit(Insn{Op: cls | r.code | SrcK, Dst: R5, Imm: -9})
		}
	}
	for i, r := range condTable {
		l := fmt.Sprintf("t%d", i)
		b.JumpReg(r.code, R1, R2, l).JumpImm(r.code, R3, -2, l).MovImm(R0, int32(i)).Label(l)
	}
	p = b.Exit().MustProgram("everyop")
	text = Disassemble(p)
	if p2, err = Assemble(text, "everyop2", nil, nil); err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if !bytes.Equal(p.Encode(), p2.Encode()) {
		t.Fatalf("round trip changed the program:\n%s\n-- reassembled --\n%s", text, Disassemble(p2))
	}
	for _, want := range []string{"add32 r3, r7", "mov32 r5, -9", "neg32 r4", "arsh r3, r7", "jsle r3, -2, "} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly lacks %q", want)
		}
	}
}

// Property: for random scalar inputs, verified ALU programs never fault.
func TestVerifiedProgramsNeverFault(t *testing.T) {
	m := NewArrayMap(16, 8)
	p := NewBuilder().
		Load(SizeDW, R6, R1, 0).
		Load(SizeDW, R7, R1, 8).
		MovReg(R0, R6).
		ALU(ALUDiv, R0, R7).
		ALU(ALUXor, R0, R6).
		ALUImm(ALUMod, R0, 97).
		ALU(ALULsh, R0, R7).
		Exit().MustProgram("fuzzalu")
	v := &Verifier{CtxSize: 16}
	if err := v.Verify(p); err != nil {
		t.Fatal(err)
	}
	_ = m
	vm := NewVM(nil)
	f := func(a, b uint64) bool {
		ctx := make([]byte, 16)
		binary.LittleEndian.PutUint64(ctx, a)
		binary.LittleEndian.PutUint64(ctx[8:], b)
		_, err := vm.Run(p, ctx)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterpreterSimpleClassifier(b *testing.B) {
	p := NewBuilder().
		Load(SizeB, R2, R1, 0).
		JumpImm(JmpEq, R2, 1, "write").
		Return(0x11).
		Label("write").
		Return(0x22).MustProgram("bench")
	vm := NewVM(nil)
	ctx := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(p, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterMapLookup(b *testing.B) {
	m := NewArrayMap(8, 4)
	p := NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R0, R0, 0).
		Exit().
		Label("miss").Return(0).MustProgram("benchmap")
	vm := NewVM(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifier(b *testing.B) {
	m := NewArrayMap(8, 4)
	p := NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R0, R0, 0).
		Exit().
		Label("miss").Return(0).MustProgram("benchver")
	for i := 0; i < b.N; i++ {
		v := &Verifier{CtxSize: 64}
		if err := v.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
}
