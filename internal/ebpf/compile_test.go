package ebpf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// --- differential test: randomized verifier-accepted programs ------------

const diffCtxSize = 64

// edgeOperands are the scalars where shift masks, 32-bit truncation and
// signedness change an op's result.
var edgeOperands = []uint64{0, 1, 31, 32, 63, 64, 1 << 31, 1<<32 - 1, 1 << 63, ^uint64(0)}

// diffMaps is one tier's map instances: geometry fixed, contents cloned so
// both tiers mutate independent state.
type diffMaps struct {
	arr  *ArrayMap // valueSize 16, 8 entries
	hash *HashMap  // key 4, value 8, 4 entries (small: exercises map-full)
}

func newDiffMaps() diffMaps {
	return diffMaps{arr: NewArrayMap(16, 8), hash: NewHashMap(4, 8, 4)}
}

func (dm diffMaps) clone() diffMaps {
	c := newDiffMaps()
	copy(c.arr.data, dm.arr.data)
	for k, v := range dm.hash.data {
		nv := make([]byte, len(v))
		copy(nv, v)
		c.hash.data[k] = nv
	}
	return c
}

func (dm diffMaps) equal(o diffMaps) error {
	if !bytes.Equal(dm.arr.data, o.arr.data) {
		return fmt.Errorf("array map contents differ:\n%x\n%x", dm.arr.data, o.arr.data)
	}
	if len(dm.hash.data) != len(o.hash.data) {
		return fmt.Errorf("hash map sizes differ: %d vs %d", len(dm.hash.data), len(o.hash.data))
	}
	for k, v := range dm.hash.data {
		ov, ok := o.hash.data[k]
		if !ok || !bytes.Equal(v, ov) {
			return fmt.Errorf("hash map key %x differs: %x vs %x", k, v, ov)
		}
	}
	return nil
}

// genProgram builds a random program that is verifier-accepted by
// construction. Register roles: r6 = ctx pointer, r7-r9 = long-lived
// scalars, r0-r5 = per-snippet temporaries. Stack slots [-8], [-16] hold
// initialized u64s; [-4] holds the map key; [-24..-9) holds map values.
// A pure program draws only ALU snippets and branches over its constants, so
// StaticVerdict must prove it.
func genProgram(rng *rand.Rand, dm diffMaps, pure bool) *Program {
	b := NewBuilder()
	label := 0
	next := func() string { label++; return fmt.Sprintf("L%d", label) }

	aluOps := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUMod, ALUOr, ALUAnd, ALUXor, ALULsh, ALURsh, ALUArsh}
	jmpOps := []uint8{JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSGt, JmpSGe, JmpSLt, JmpSLe, JmpSet}
	regs := []uint8{R7, R8, R9}
	reg := func() uint8 { return regs[rng.Intn(len(regs))] }
	sizes := []uint8{SizeB, SizeH, SizeW, SizeDW}
	sizeBytes := map[uint8]int16{SizeB: 1, SizeH: 2, SizeW: 4, SizeDW: 8}

	// Prologue: pin roles and initialize the stack slots snippets rely on.
	b.MovReg(R6, R1)
	b.MovImm64(R7, rng.Uint64())
	b.MovImm64(R8, rng.Uint64())
	b.MovImm(R9, int32(rng.Uint32()))
	b.Store(SizeDW, R10, -8, R7)
	b.Store(SizeDW, R10, -16, R8)
	b.StoreImm(SizeW, R10, -4, int32(rng.Uint32()))
	b.Store(SizeDW, R10, -24, R9)

	emitSnippet := func() {
		kinds := 14
		if pure {
			kinds = 5
		}
		switch rng.Intn(kinds) {
		case 0: // 64-bit ALU, register source
			b.ALU(aluOps[rng.Intn(len(aluOps))], reg(), reg())
		case 1: // 64-bit ALU, immediate (including 0: div/mod-by-zero)
			imm := int32(rng.Uint32())
			if rng.Intn(4) == 0 {
				imm = 0
			}
			b.ALUImm(aluOps[rng.Intn(len(aluOps))], reg(), imm)
		case 2: // 32-bit ALU, immediate (arsh32's &31 masking lives here)
			imm := int32(rng.Uint32())
			if rng.Intn(4) == 0 {
				imm = 0
			}
			b.ALU32Imm(aluOps[rng.Intn(len(aluOps))], reg(), imm)
		case 3: // 32-bit ALU, register source
			op := aluOps[rng.Intn(len(aluOps))]
			b.emit(Insn{Op: ClassALU | op | SrcX, Dst: reg(), Src: reg()})
		case 4: // neg, both widths
			if rng.Intn(2) == 0 {
				b.emit(Insn{Op: ClassALU64 | ALUNeg, Dst: reg()})
			} else {
				b.emit(Insn{Op: ClassALU | ALUNeg, Dst: reg()})
			}
		case 5: // load from ctx, fold into a live register
			sz := sizes[rng.Intn(len(sizes))]
			off := int16(rng.Intn(diffCtxSize - int(sizeBytes[sz])))
			b.Load(sz, R0, R6, off)
			b.ALU(ALUXor, reg(), R0)
		case 6: // store to ctx (register or immediate source)
			sz := sizes[rng.Intn(len(sizes))]
			off := int16(rng.Intn(diffCtxSize - int(sizeBytes[sz])))
			if rng.Intn(2) == 0 {
				b.Store(sz, R6, off, reg())
			} else {
				b.StoreImm(sz, R6, off, int32(rng.Uint32()))
			}
		case 7: // reload an initialized stack slot
			off := int16(-8)
			if rng.Intn(2) == 0 {
				off = -16
			}
			b.Load(SizeDW, R0, R10, off)
			b.ALU(ALUAdd, reg(), R0)
		case 8: // array map lookup + null-checked value access
			b.StoreImm(SizeW, R10, -4, int32(rng.Intn(12))) // sometimes out of range -> null
			b.LoadMap(R1, dm.arr)
			b.MovReg(R2, R10)
			b.AddImm(R2, -4)
			b.Call(HelperMapLookup)
			miss := next()
			b.JumpImm(JmpEq, R0, 0, miss)
			b.Load(SizeDW, R3, R0, 0)
			b.ALU(ALUXor, reg(), R3)
			b.Store(SizeDW, R0, 8, reg())
			b.Label(miss)
		case 9: // hash map update (may hit map-full) then lookup
			b.StoreImm(SizeW, R10, -4, int32(rng.Intn(6)))
			b.Store(SizeDW, R10, -24, reg())
			b.LoadMap(R1, dm.hash)
			b.MovReg(R2, R10)
			b.AddImm(R2, -4)
			b.MovReg(R3, R10)
			b.AddImm(R3, -24)
			b.MovImm(R4, 0)
			b.Call(HelperMapUpdate)
			b.ALU(ALUAdd, reg(), R0)
			b.LoadMap(R1, dm.hash)
			b.MovReg(R2, R10)
			b.AddImm(R2, -4)
			b.Call(HelperMapLookup)
			miss := next()
			b.JumpImm(JmpEq, R0, 0, miss)
			b.Load(SizeDW, R3, R0, 0)
			b.ALU(ALUXor, reg(), R3)
			b.Label(miss)
		case 10: // hash map delete
			b.StoreImm(SizeW, R10, -4, int32(rng.Intn(6)))
			b.LoadMap(R1, dm.hash)
			b.MovReg(R2, R10)
			b.AddImm(R2, -4)
			b.Call(HelperMapDelete)
			b.ALU(ALUAdd, reg(), R0)
		case 11: // qos class tag (sometimes out of range -> -1, tag untouched)
			b.MovImm(R1, int32(rng.Intn(6)))
			b.Call(HelperQoSSetClass)
			b.ALU(ALUAdd, reg(), R0)
		case 12: // prandom
			b.Call(HelperGetPrandom)
			b.ALU(ALUAdd, reg(), R0)
		default:
			// Stack pointer ± a scalar only the verifier's fold knows: r2 =
			// a <op> b is corrected by a constant to ±8 or ±16, so the load is
			// in bounds iff verifier, interpreter and compiled tier all
			// compute the fold aluSem does.
			op, is64 := aluOps[rng.Intn(len(aluOps))], rng.Intn(2) == 0
			operand := func() uint64 {
				if rng.Intn(2) == 0 {
					return edgeOperands[rng.Intn(len(edgeOperands))]
				}
				return rng.Uint64()
			}
			x, y := operand(), operand()
			cls := uint8(ClassALU)
			if is64 {
				cls = ClassALU64
			}
			b.MovImm64(R2, x)
			if rng.Intn(2) == 0 {
				y = uint64(int64(int32(y))) // what the immediate form can carry
				b.emit(Insn{Op: cls | op | SrcK, Dst: R2, Imm: int32(y)})
			} else {
				b.MovImm64(R3, y)
				b.emit(Insn{Op: cls | op | SrcX, Dst: R2, Src: R3})
			}
			folded, _ := aluSem(op, is64, x, y)
			delta, ptrOp := uint64(8<<rng.Intn(2)), uint8(ALUSub)
			if rng.Intn(2) == 0 {
				delta, ptrOp = -delta, ALUAdd
			}
			b.MovImm64(R4, delta-folded)
			b.ALU(ALUAdd, R2, R4)
			b.MovReg(R3, R10)
			b.ALU(ptrOp, R3, R2)
			b.Load(SizeDW, R0, R3, 0)
			b.ALU(ALUAdd, reg(), R0)
		}
	}

	for n := 4 + rng.Intn(12); n > 0; n-- {
		if rng.Intn(4) == 0 {
			// Conditional skip over the next few snippets (forward only, so
			// the verifier's no-back-edge rule holds on every path).
			skip := next()
			if rng.Intn(2) == 0 {
				b.JumpImm(jmpOps[rng.Intn(len(jmpOps))], reg(), int32(rng.Uint32()), skip)
			} else {
				b.JumpReg(jmpOps[rng.Intn(len(jmpOps))], reg(), reg(), skip)
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				emitSnippet()
			}
			b.Label(skip)
		} else {
			emitSnippet()
		}
	}

	// Epilogue: fold the long-lived scalars into r0.
	b.MovReg(R0, R7)
	b.ALU(ALUXor, R0, R8)
	b.ALU(ALUAdd, R0, R9)
	b.Exit()

	p, err := b.Program("diff")
	if err != nil {
		panic(err)
	}
	return p
}

// errClass folds an execution error into a comparable class.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrFuel):
		return "fuel"
	case errors.Is(err, ErrFault):
		return "fault"
	default:
		return "other"
	}
}

// TestDifferentialCompiledVsInterpreter generates random verifier-accepted
// programs and checks that neither tier ever reaches a defense-in-depth
// check (no fault, no fuel exhaustion), that the compiled tier and the
// interpreter agree on r0, ctx bytes and final map contents across
// invocations, and that a StaticVerdict proof is what every invocation
// returns.
func TestDifferentialCompiledVsInterpreter(t *testing.T) {
	const programs = 300
	const invocations = 4
	proved := 0
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mapsI := newDiffMaps()
		// Pre-populate so lookups hit immediately on some keys.
		for i := 0; i < 4; i++ {
			mapsI.arr.SetU64(i, 0, rng.Uint64())
		}
		mapsC := mapsI.clone()

		pure := seed%5 == 0
		progI := genProgram(rng, mapsI, pure)
		// The compiled tier's program references its own map instances at
		// the same indices (genProgram registers maps in a fixed order).
		progC := &Program{Insns: progI.Insns, Name: progI.Name}
		for _, m := range progI.Maps {
			switch m {
			case Map(mapsI.arr):
				progC.Maps = append(progC.Maps, mapsC.arr)
			case Map(mapsI.hash):
				progC.Maps = append(progC.Maps, mapsC.hash)
			default:
				t.Fatalf("seed %d: unexpected map", seed)
			}
		}

		v := &Verifier{CtxSize: diffCtxSize}
		if err := v.Verify(progI); err != nil {
			t.Fatalf("seed %d: generator produced rejected program: %v\n%s", seed, err, Disassemble(progI))
		}
		cp, err := Compile(progC, &Verifier{CtxSize: diffCtxSize})
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}

		verdict, constant := cp.StaticVerdict()
		if pure && !constant {
			t.Fatalf("seed %d: StaticVerdict did not prove a constant-only program\n%s", seed, Disassemble(progI))
		}
		if constant {
			proved++
		}

		vmI, vmC := NewVM(nil), NewVM(nil)
		for inv := 0; inv < invocations; inv++ {
			ctxI := make([]byte, diffCtxSize)
			rng.Read(ctxI)
			ctxC := append([]byte(nil), ctxI...)

			retI, errI := vmI.Run(progI, ctxI)
			retC, errC := vmC.RunCompiled(cp, ctxC)
			if errI != nil || errC != nil {
				t.Fatalf("seed %d inv %d: verifier-accepted program failed at run time: interp %v, compiled %v\n%s",
					seed, inv, errI, errC, Disassemble(progI))
			}
			if retI != retC {
				t.Fatalf("seed %d inv %d: r0 %#x (interp) != %#x (compiled)\n%s",
					seed, inv, retI, retC, Disassemble(progI))
			}
			if constant && retC != verdict {
				t.Fatalf("seed %d inv %d: StaticVerdict proved %#x, invocation returned %#x\n%s",
					seed, inv, verdict, retC, Disassemble(progI))
			}
			if !bytes.Equal(ctxI, ctxC) {
				t.Fatalf("seed %d inv %d: ctx diverged\ninterp:   %x\ncompiled: %x\n%s",
					seed, inv, ctxI, ctxC, Disassemble(progI))
			}
			if vmI.QoSClass != vmC.QoSClass {
				t.Fatalf("seed %d inv %d: QoS class %d (interp) != %d (compiled)\n%s",
					seed, inv, vmI.QoSClass, vmC.QoSClass, Disassemble(progI))
			}
		}
		if err := mapsI.equal(mapsC); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, Disassemble(progI))
		}
	}
	if proved < programs/5 {
		t.Fatalf("StaticVerdict proved %d programs, want the %d constant-only ones at least", proved, programs/5)
	}
}

// TestCompiledOpsMatchSemantics holds RunCompiled's cALU and cJmp to sem.go:
// for every table row, width and form, the compiled op must decode back to
// the instruction it came from and compute what aluSem/condSem say on
// boundary operands in either position. A pointer row checks that 64-bit
// add/sub of a scalar keeps a stack pointer's window.
func TestCompiledOpsMatchSemantics(t *testing.T) {
	if n := unsafe.Sizeof(cop{}); n != 16 {
		t.Errorf("a compiled op is %d bytes, want 16: op must fit the padding", n)
	}
	vm := NewVM(nil)
	// run compiles [lddw r2,a; lddw r3,b; in; tail...] and returns the
	// compiled form of in together with r0.
	run := func(in Insn, a, b uint64, tail ...Insn) (cop, uint64) {
		t.Helper()
		bld := NewBuilder().MovImm64(R2, a).MovImm64(R3, b)
		bld.emit(in)
		for _, x := range tail {
			bld.emit(x)
		}
		cp, err := Compile(bld.MustProgram("op"), nil)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		got, err := vm.RunCompiled(cp, nil)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		return cp.ops[2], got
	}
	// operand is "r2 <op> r3" or "r2 <op> imm(b)" without its op and class,
	// and the source value the instruction means.
	operand := func(srcX bool, b uint64) (Insn, uint64) {
		if srcX {
			return Insn{Op: SrcX, Dst: R2, Src: R3}, b
		}
		return Insn{Op: SrcK, Dst: R2, Imm: int32(b)}, uint64(int64(int32(b)))
	}
	// decodes reports whether o's fields give back in's op, width and form.
	decodes := func(o cop, code copCode, in Insn) bool {
		return o.code == code && o.op == in.Op && o.nibble() == in.Op&0xf0 &&
			o.is64() == (in.Class() == ClassALU64) && o.regSrc() == (in.Op&SrcX != 0) &&
			o.dst == in.Dst && o.src == in.Src
	}
	movR0R2 := Insn{Op: ClassALU64 | ALUMov | SrcX, Dst: R0, Src: R2}
	movR0 := func(imm int32) Insn { return Insn{Op: ClassALU64 | ALUMov | SrcK, Dst: R0, Imm: imm} }
	exit := Insn{Op: ClassJMP | JmpExit}

	for _, r := range append(aluTable[:nALU:nALU], negRow) {
		for _, class := range []uint8{ClassALU64, ClassALU} {
			for _, srcX := range []bool{true, false} {
				if r.code == ALUNeg && srcX {
					continue // unary: only the form without a source register
				}
				for _, a := range edgeOperands {
					for _, b := range edgeOperands {
						in, src := operand(srcX, b)
						in.Op |= class | r.code
						o, got := run(in, a, b, movR0R2, exit)
						if !decodes(o, cALU, in) {
							t.Fatalf("%v compiled to %v %+v", in, o, o)
						}
						if want, _ := aluSem(r.code, class == ClassALU64, a, src); got != want {
							t.Errorf("%v (%v) on %#x, %#x: compiled tier %#x, aluSem %#x", in, o, a, src, got, want)
						}
					}
				}
			}
		}
	}
	for _, r := range condTable {
		for _, srcX := range []bool{true, false} {
			for _, a := range edgeOperands {
				for _, b := range edgeOperands {
					in, src := operand(srcX, b)
					in.Op |= ClassJMP | r.code
					in.Off = 2 // over "mov r0, 0; exit" to "mov r0, 1; exit"
					o, got := run(in, a, b, movR0(0), exit, movR0(1), exit)
					if !decodes(o, cJmp, in) {
						t.Fatalf("%v compiled to %v %+v", in, o, o)
					}
					if want, _ := condSem(r.code, a, src); (got == 1) != want {
						t.Errorf("%v (%v) on %#x, %#x: compiled tier taken=%d, condSem %v", in, o, a, src, got, want)
					}
				}
			}
		}
	}

	// Pointer row: r3 = r10 moved down 16 by add or sub, in either form, then
	// a load through r3 must read the slot stored at [r10-16].
	const slot = 0x1122_3344_5566_7788
	for _, op := range []uint8{ALUAdd, ALUSub} {
		delta := int32(-16)
		if op == ALUSub {
			delta = 16
		}
		for _, in := range []Insn{
			{Op: ClassALU64 | op | SrcK, Dst: R3, Imm: delta},
			{Op: ClassALU64 | op | SrcX, Dst: R3, Src: R4},
		} {
			bld := NewBuilder().MovImm64(R2, slot).Store(SizeDW, R10, -16, R2).
				MovReg(R3, R10).MovImm(R4, delta)
			bld.emit(in)
			cp, err := Compile(bld.Load(SizeDW, R0, R3, 0).Exit().MustProgram("ptr"), nil)
			if err != nil {
				t.Fatalf("%v: %v", in, err)
			}
			if o := cp.ops[4]; !decodes(o, cALU, in) {
				t.Fatalf("%v compiled to %v %+v", in, o, o)
			}
			if got, err := vm.RunCompiled(cp, nil); err != nil || got != slot {
				t.Errorf("%v on a stack pointer: r0 %#x, err %v; want %#x", in, got, err, uint64(slot))
			}
		}
	}
}

// --- edge-case parity ----------------------------------------------------

// runBoth executes p on both tiers with fresh VMs and identical ctx copies,
// requiring identical outcomes, and returns the shared result.
func runBoth(t *testing.T, p *Program, ctx []byte, ctxSize int) (uint64, error) {
	t.Helper()
	cp, err := Compile(p, &Verifier{CtxSize: ctxSize})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var ctxI, ctxC []byte
	if ctx != nil {
		ctxI = append([]byte(nil), ctx...)
		ctxC = append([]byte(nil), ctx...)
	}
	retI, errI := NewVM(nil).Run(p, ctxI)
	retC, errC := NewVM(nil).RunCompiled(cp, ctxC)
	if errClass(errI) != errClass(errC) || (errI == nil && retI != retC) || !bytes.Equal(ctxI, ctxC) {
		t.Fatalf("tiers diverge: interp (%#x, %v) compiled (%#x, %v)", retI, errI, retC, errC)
	}
	return retC, errC
}

func TestParityArsh32(t *testing.T) {
	// 32-bit arsh masks the shift with &31 (the other shifts use &63);
	// check both the immediate and register forms at the boundary.
	for _, shift := range []int32{0, 1, 31, 32, 33, 63} {
		p := NewBuilder().
			MovImm(R7, -8). // 0xfffffff8 after 32-bit truncation
			ALU32Imm(ALUArsh, R7, shift).
			MovReg(R0, R7).
			Exit().
			MustProgram("arsh32imm")
		got, _ := runBoth(t, p, nil, 0)
		want := uint64(uint32(int32(-8) >> (uint32(shift) & 31)))
		if got != want {
			t.Errorf("arsh32 imm shift %d: got %#x want %#x", shift, got, want)
		}

		b := NewBuilder().MovImm(R7, -8).MovImm(R8, shift)
		b.emit(Insn{Op: ClassALU | ALUArsh | SrcX, Dst: R7, Src: R8})
		p = b.MovReg(R0, R7).Exit().MustProgram("arsh32reg")
		got, _ = runBoth(t, p, nil, 0)
		if got != want {
			t.Errorf("arsh32 reg shift %d: got %#x want %#x", shift, got, want)
		}
	}
}

func TestParityDivModByZero(t *testing.T) {
	cases := []struct {
		name string
		op   uint8
		is64 bool
		want uint64 // for dividend 7, divisor 0
	}{
		{"div64", ALUDiv, true, 0},
		{"mod64", ALUMod, true, 7},
		{"div32", ALUDiv, false, 0},
		{"mod32", ALUMod, false, 7},
	}
	for _, tc := range cases {
		for _, regForm := range []bool{false, true} {
			b := NewBuilder().MovImm(R7, 7)
			cls := uint8(ClassALU)
			if tc.is64 {
				cls = ClassALU64
			}
			if regForm {
				b.MovImm(R8, 0)
				b.emit(Insn{Op: cls | tc.op | SrcX, Dst: R7, Src: R8})
			} else {
				b.emit(Insn{Op: cls | tc.op | SrcK, Dst: R7, Imm: 0})
			}
			p := b.MovReg(R0, R7).Exit().MustProgram(tc.name)
			got, _ := runBoth(t, p, nil, 0)
			if got != tc.want {
				t.Errorf("%s (reg=%v): got %d want %d", tc.name, regForm, got, tc.want)
			}
		}
	}
}

func TestParityNullCheckBranch(t *testing.T) {
	arr := NewArrayMap(8, 2)
	arr.SetU64(1, 0, 0xabcd)
	// Key 1 hits (value 0xabcd), key 5 misses (null): the null-check branch
	// must behave identically on both tiers, including the synthetic
	// non-zero address a live pointer compares as.
	for _, tc := range []struct{ key, want uint64 }{{1, 0xabcd}, {5, ^uint64(0)}} {
		p := NewBuilder().
			StoreImm(SizeW, R10, -4, int32(tc.key)).
			LoadMap(R1, arr).
			MovReg(R2, R10).
			AddImm(R2, -4).
			Call(HelperMapLookup).
			JumpImm(JmpEq, R0, 0, "miss").
			Load(SizeDW, R0, R0, 0).
			Exit().
			Label("miss").
			MovImm(R0, -1).
			Exit().
			MustProgram("nullcheck")
		got, _ := runBoth(t, p, nil, 0)
		if got != tc.want {
			t.Errorf("key %d: got %#x want %#x", tc.key, got, tc.want)
		}
	}
}

func TestParityLdImm64AtEnd(t *testing.T) {
	// A fused ld_imm64 as the last op before exit must survive the pc
	// remapping (its continuation slot is the second-to-last insn).
	p := NewBuilder().
		MovImm64(R0, 0xdead_beef_cafe_f00d).
		Exit().
		MustProgram("lddw-end")
	got, _ := runBoth(t, p, nil, 0)
	if got != 0xdead_beef_cafe_f00d {
		t.Errorf("got %#x", got)
	}

	// A ld_imm64 whose continuation IS the program end cannot compile:
	// control flow would fall off. (The verifier rejects it too.)
	trunc := &Program{Insns: []Insn{
		{Op: OpLdImm64, Dst: R0, Imm: 1},
		{Imm: 0},
	}}
	if _, err := compile(trunc, nil); err == nil {
		t.Fatal("compile accepted program falling off the end")
	}
	truncHard := &Program{Insns: []Insn{{Op: OpLdImm64, Dst: R0, Imm: 1}}}
	if _, err := compile(truncHard, nil); err == nil {
		t.Fatal("compile accepted truncated ld_imm64")
	}
}

func TestCompiledFuelLimit(t *testing.T) {
	// The compiled tier keeps the fuel limit as defense in depth. The
	// verifier rejects loops, so build the loop unverified via compile().
	loop := &Program{Insns: []Insn{
		{Op: ClassALU64 | ALUMov | SrcK, Dst: R0, Imm: 0}, // 0: r0 = 0
		{Op: ClassJMP | JmpA, Off: -2},                    // 1: goto 0
	}, Name: "loop"}
	cp, err := compile(loop, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := NewVM(nil).RunCompiled(cp, nil); !errors.Is(err, ErrFuel) {
		t.Fatalf("want ErrFuel, got %v", err)
	}
}

func TestCompiledBoundsDefenseInDepth(t *testing.T) {
	// Unverified programs still cannot escape their memory windows.
	oob := &Program{Insns: []Insn{
		{Op: ClassLDX | SizeDW | ModeMEM, Dst: R0, Src: R10, Off: 8}, // past stack top
		{Op: ClassJMP | JmpExit},
	}, Name: "oob"}
	cp, err := compile(oob, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := NewVM(nil).RunCompiled(cp, nil); !errors.Is(err, ErrFault) {
		t.Fatalf("want ErrFault, got %v", err)
	}
}

// TestCompiledFaultsNameTheirInstruction: a compiled-tier fault says what
// went wrong and cites the instruction that raised it. The ld_imm64 ahead of
// each faulting op makes its instruction index differ from its op index.
func TestCompiledFaultsNameTheirInstruction(t *testing.T) {
	const id = 99
	reg := DefaultHelpers()
	reg.Register(id, "custom", nil, RetScalar, func(*VM, []val) (val, error) { return scalar(0), nil })
	p := NewBuilder().MovImm64(R6, 1).MovImm(R0, 0).Call(id).Exit().MustProgram("custom")
	cp, err := Compile(p, &Verifier{Helpers: reg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// The VM's registry lacks the helper the program was verified against.
	_, err = NewVM(nil).RunCompiled(cp, nil)
	if !errors.Is(err, ErrFault) || !strings.Contains(err.Error(), "unknown helper at insn 3") {
		t.Errorf("unknown helper: got %v, want a fault citing insn 3", err)
	}

	p = NewBuilder().MovImm64(R6, 1).MovImm(R0, 0).MovImm(R1, 0).Exit().MustProgram("badop")
	cp, err = Compile(p, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cp.ops[2].code = cBad
	_, err = NewVM(nil).RunCompiled(cp, nil)
	if !errors.Is(err, ErrFault) || !strings.Contains(err.Error(), "undefined op at insn 3") {
		t.Errorf("undefined op: got %v, want a fault citing insn 3", err)
	}
}

// --- zero-allocation and stack-watermark behaviour -----------------------

func TestCompiledRunZeroAlloc(t *testing.T) {
	arr := NewArrayMap(16, 4)
	arr.SetU64(0, 0, 1024)
	p := NewBuilder().
		StoreImm(SizeW, R10, -4, 0).
		LoadMap(R1, arr).
		MovReg(R2, R10).
		AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R0, R0, 0).
		Exit().
		Label("miss").
		MovImm(R0, -1).
		Exit().
		MustProgram("alloc-probe")
	cp, err := Compile(p, &Verifier{CtxSize: 16})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := NewVM(nil)
	ctx := make([]byte, 16)
	if _, err := vm.RunCompiled(cp, ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := vm.RunCompiled(cp, ctx); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled run allocated %.1f times per invocation", allocs)
	}
}

func TestStackClearedBetweenInvocations(t *testing.T) {
	// The high-water-mark optimization must be invisible: a slot dirtied by
	// one invocation reads back zero in the next. The program reads before
	// writing, so it cannot pass the verifier; execute unverified on both
	// tiers (the watermark must hold even without verifier guarantees).
	p := &Program{Insns: []Insn{
		{Op: ClassLDX | SizeDW | ModeMEM, Dst: R0, Src: R10, Off: -256}, // r0 = old slot
		{Op: ClassALU64 | ALUMov | SrcK, Dst: R7, Imm: -1},
		{Op: ClassSTX | SizeDW | ModeMEM, Dst: R10, Src: R7, Off: -256}, // dirty it
		{Op: ClassJMP | JmpExit},
	}, Name: "hwm"}
	vm := NewVM(nil)
	for i := 0; i < 3; i++ {
		ret, err := vm.Run(p, nil)
		if err != nil {
			t.Fatalf("interp run %d: %v", i, err)
		}
		if ret != 0 {
			t.Fatalf("interp run %d: stale stack data %#x", i, ret)
		}
	}
	cp, err := compile(p, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for i := 0; i < 3; i++ {
		ret, err := vm.RunCompiled(cp, nil)
		if err != nil {
			t.Fatalf("compiled run %d: %v", i, err)
		}
		if ret != 0 {
			t.Fatalf("compiled run %d: stale stack data %#x", i, ret)
		}
	}
}

func TestHashMapUpdateReusesStorage(t *testing.T) {
	m := NewHashMap(4, 8, 4)
	key := []byte{1, 0, 0, 0}
	if err := m.Update(key, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	before := m.Lookup(key)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Update(key, []byte{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("existing-key update allocated %.1f times", allocs)
	}
	after := m.Lookup(key)
	if &before[0] != &after[0] {
		t.Fatal("update did not reuse value storage")
	}
	if !bytes.Equal(after, []byte{9, 9, 9, 9, 9, 9, 9, 9}) {
		t.Fatalf("value not updated: %x", after)
	}
}

func TestCompiledDump(t *testing.T) {
	arr := NewArrayMap(16, 4)
	p := NewBuilder().
		LoadMap(R1, arr).
		MovImm(R0, 0).
		Exit().
		MustProgram("dump")
	cp, err := Compile(p, &Verifier{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out := cp.Dump()
	for _, want := range []string{"ld_map", "mov_imm", "exit"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if cp.NumOps() != 3 {
		t.Errorf("NumOps = %d, want 3 (ld_imm64 fused)", cp.NumOps())
	}
}

// TestParityQoSSetClass checks the qos_set_class helper on both tiers:
// valid classes tag the VM and return 0, out-of-range classes return -1
// and leave the tag untouched, and every invocation starts untagged.
func TestParityQoSSetClass(t *testing.T) {
	for _, tc := range []struct {
		class   int32
		wantRet uint64
		wantTag uint8
	}{
		{0, 0, 0}, {1, 0, 1}, {3, 0, 3}, {4, ^uint64(0), 0}, {255, ^uint64(0), 0},
	} {
		p := NewBuilder().
			MovImm(R1, tc.class).
			Call(HelperQoSSetClass).
			Exit().
			MustProgram("qostag")
		cp, err := Compile(p, &Verifier{})
		if err != nil {
			t.Fatalf("class %d: compile: %v", tc.class, err)
		}
		vmI, vmC := NewVM(nil), NewVM(nil)
		retI, errI := vmI.Run(p, nil)
		retC, errC := vmC.RunCompiled(cp, nil)
		if errI != nil || errC != nil {
			t.Fatalf("class %d: errors %v / %v", tc.class, errI, errC)
		}
		if retI != tc.wantRet || retC != tc.wantRet {
			t.Errorf("class %d: r0 interp %#x compiled %#x, want %#x", tc.class, retI, retC, tc.wantRet)
		}
		if vmI.QoSClass != tc.wantTag || vmC.QoSClass != tc.wantTag {
			t.Errorf("class %d: tag interp %d compiled %d, want %d", tc.class, vmI.QoSClass, vmC.QoSClass, tc.wantTag)
		}
		// A following invocation that does not tag must reset the class.
		clear := NewBuilder().MovImm(R0, 0).Exit().MustProgram("noop")
		if _, err := vmI.Run(clear, nil); err != nil {
			t.Fatal(err)
		}
		ccp, _ := Compile(clear, &Verifier{})
		if _, err := vmC.RunCompiled(ccp, nil); err != nil {
			t.Fatal(err)
		}
		if vmI.QoSClass != 0 || vmC.QoSClass != 0 {
			t.Errorf("class %d: tag survived into next invocation", tc.class)
		}
	}
	// The assembler resolves the helper by name.
	p, err := Assemble("mov r1, 2\ncall qos_set_class\nexit\n", "asmqos", nil, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	vm := NewVM(nil)
	if _, err := vm.Run(p, nil); err != nil || vm.QoSClass != 2 {
		t.Fatalf("asm call: class %d err %v", vm.QoSClass, err)
	}
}
