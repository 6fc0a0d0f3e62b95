package ebpf

import (
	"errors"
	"fmt"
)

// errVerify wraps all verifier rejections.
var errVerify = errors.New("ebpf: verification failed")

// verifyBudget bounds the total instructions simulated across all explored
// paths, the analogue of the kernel's complexity limit.
const verifyBudget = 1 << 20

// rt is the abstract type of a register during verification.
type rt uint8

const (
	rtUninit rt = iota
	rtScalar
	rtCtx
	rtStack
	rtMapValue
	rtMapValueOrNull
	rtMapPtr
)

func (t rt) String() string {
	switch t {
	case rtUninit:
		return "uninit"
	case rtScalar:
		return "scalar"
	case rtCtx:
		return "ctx"
	case rtStack:
		return "stack"
	case rtMapValue:
		return "map_value"
	case rtMapValueOrNull:
		return "map_value_or_null"
	case rtMapPtr:
		return "map_ptr"
	}
	return "?"
}

// vreg is the verifier's model of one register.
type vreg struct {
	t     rt
	off   int64 // constant offset for pointer types
	known bool  // constant tracking for scalars (never set on other types)
	val   uint64
	m     Map // for map-derived types
}

func (r vreg) pointer() bool {
	return r.t == rtCtx || r.t == rtStack || r.t == rtMapValue
}

// vstate is the abstract machine state along one path. dead marks a path
// that took a branch edge its known scalar operands rule out: no execution
// follows it, so it is verified like any other but its exits and effects do
// not count toward the verdict.
type vstate struct {
	regs      [NumRegs]vreg
	stackInit [StackSize]bool
	dead      bool
}

// verdict is the static verdict verification proves on the way: the r0
// every invocation returns, unless a live path spoiled the proof. Path
// promotion trusts it to skip the classifier, so every live exit must return
// the same known scalar, and no live path may store anywhere but the stack
// (which the VM clears between runs) or call a helper but the pure pair
// (see pure). An accepted program cannot fault or loop, so "every live exit
// returns r0" is "every invocation returns r0".
type verdict struct {
	r0      uint64
	exits   int  // live exits seen
	spoiled bool // a live exit disagreed or a live path had an effect
}

func (s *vstate) clone() *vstate {
	c := *s
	return &c
}

// Verifier statically checks programs before they may be attached to a
// router. ctxSize is the size of the context window passed in r1.
type Verifier struct {
	CtxSize int
}

// Verify checks the program, returning nil if it is safe to run. It accepts
// exactly the programs Compile accepts.
func (v *Verifier) Verify(p *Program) error {
	_, err := v.verify(p)
	return err
}

// verify checks the program and translates it. The walk proves every path
// safe and the static verdict; every instruction, reachable or not, must
// also translate, so an undefined instruction on no path is refused too.
func (v *Verifier) verify(p *Program) (*CompiledProgram, error) {
	proof, err := v.walk(p)
	if err != nil {
		return nil, err
	}
	cp, err := compile(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errVerify, err)
	}
	cp.proof = proof
	return cp, nil
}

// walk checks every path of the program and returns the static verdict it
// proved.
func (v *Verifier) walk(p *Program) (verdict, error) {
	var vd verdict
	n := len(p.Insns)
	if n == 0 {
		return vd, fmt.Errorf("%w: empty program", errVerify)
	}
	if n > MaxInsns {
		return vd, fmt.Errorf("%w: program too long (%d > %d)", errVerify, n, MaxInsns)
	}
	// Check register numbers (the encoding has room for 16) and mark ld_imm64
	// continuation slots; jumping into them is invalid.
	isCont := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		if in := p.Insns[pc]; in.Dst >= NumRegs || in.Src >= NumRegs {
			return vd, fmt.Errorf("%w: invalid register r%d at %d", errVerify, max(in.Dst, in.Src), pc)
		}
		if p.Insns[pc].Op == OpLdImm64 {
			if pc+1 >= n {
				return vd, fmt.Errorf("%w: truncated ld_imm64 at %d", errVerify, pc)
			}
			if p.Insns[pc+1].Op != 0 {
				return vd, fmt.Errorf("%w: ld_imm64 at %d not followed by zero slot", errVerify, pc)
			}
			isCont[pc+1] = true
			pc++
		}
	}

	init := &vstate{}
	init.regs[R1] = vreg{t: rtCtx}
	init.regs[R10] = vreg{t: rtStack, off: StackSize}

	type frame struct {
		pc int
		st *vstate
	}
	work := []frame{{0, init}}
	budget := verifyBudget

	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		pc, st := f.pc, f.st
		for {
			if budget--; budget < 0 {
				return vd, fmt.Errorf("%w: program too complex", errVerify)
			}
			if pc < 0 || pc >= n {
				return vd, fmt.Errorf("%w: control flow falls off the program at %d", errVerify, pc)
			}
			if isCont[pc] {
				return vd, fmt.Errorf("%w: jump into the middle of ld_imm64 at %d", errVerify, pc)
			}
			in := p.Insns[pc]
			switch in.Class() {
			case ClassALU64, ClassALU:
				if err := v.checkALU(st, in, pc); err != nil {
					return vd, err
				}
				pc++
			case ClassLD:
				if in.Op != OpLdImm64 {
					return vd, fmt.Errorf("%w: unsupported LD opcode %#x at %d", errVerify, in.Op, pc)
				}
				if err := checkWritable(in.Dst, pc); err != nil {
					return vd, err
				}
				if in.Src == PseudoMapFD {
					idx := int(in.Imm)
					if idx < 0 || idx >= len(p.Maps) {
						return vd, fmt.Errorf("%w: map index %d out of range at %d", errVerify, idx, pc)
					}
					st.regs[in.Dst] = vreg{t: rtMapPtr, m: p.Maps[idx]}
				} else {
					imm := uint64(uint32(in.Imm)) | uint64(uint32(p.Insns[pc+1].Imm))<<32
					st.regs[in.Dst] = vreg{t: rtScalar, known: true, val: imm}
				}
				pc += 2
			case ClassLDX:
				if err := v.checkMem(st, st.regs[in.Src], int64(in.Off), sizeOf(in.Op), false, pc); err != nil {
					return vd, err
				}
				if err := checkWritable(in.Dst, pc); err != nil {
					return vd, err
				}
				st.regs[in.Dst] = vreg{t: rtScalar}
				pc++
			case ClassST, ClassSTX:
				if in.Class() == ClassSTX {
					src := st.regs[in.Src]
					if src.t == rtUninit {
						return vd, fmt.Errorf("%w: store of uninitialized r%d at %d", errVerify, in.Src, pc)
					}
					if src.t != rtScalar {
						return vd, fmt.Errorf("%w: storing %v to memory unsupported at %d", errVerify, src.t, pc)
					}
				}
				if err := v.checkMem(st, st.regs[in.Dst], int64(in.Off), sizeOf(in.Op), true, pc); err != nil {
					return vd, err
				}
				vd.spoiled = vd.spoiled || (!st.dead && st.regs[in.Dst].t != rtStack)
				pc++
			case ClassJMP:
				op := in.Op & 0xf0
				switch op {
				case JmpExit:
					if st.regs[R0].t != rtScalar {
						return vd, fmt.Errorf("%w: exit with r0 %v at %d", errVerify, st.regs[R0].t, pc)
					}
					if r := st.regs[R0]; !st.dead {
						vd.spoiled = vd.spoiled || !r.known || (vd.exits > 0 && r.val != vd.r0)
						vd.r0, vd.exits = r.val, vd.exits+1
					}
					goto nextPath
				case JmpCall:
					if err := v.checkCall(st, in, pc); err != nil {
						return vd, err
					}
					vd.spoiled = vd.spoiled || (!st.dead && !pure(in.Imm))
					pc++
				case JmpA:
					if in.Off < 0 {
						return vd, fmt.Errorf("%w: back-edge at %d (loops are not allowed)", errVerify, pc)
					}
					pc += int(in.Off) + 1
				default:
					if in.Off < 0 {
						return vd, fmt.Errorf("%w: back-edge at %d (loops are not allowed)", errVerify, pc)
					}
					taken, fall, err := v.checkBranch(st, in, pc)
					if err != nil {
						return vd, err
					}
					work = append(work, frame{pc + int(in.Off) + 1, taken})
					st = fall
					pc++
				}
			default:
				return vd, fmt.Errorf("%w: unknown instruction class %#x at %d", errVerify, in.Class(), pc)
			}
		}
	nextPath:
	}
	return vd, nil
}

func checkWritable(reg uint8, pc int) error {
	if reg >= R10 {
		return fmt.Errorf("%w: write to read-only r%d at %d", errVerify, reg, pc)
	}
	return nil
}

func (v *Verifier) checkALU(st *vstate, in Insn, pc int) error {
	op := in.Op & 0xf0
	if err := checkWritable(in.Dst, pc); err != nil {
		return err
	}
	var src vreg
	if in.Op&SrcX != 0 {
		src = st.regs[in.Src]
		if src.t == rtUninit {
			return fmt.Errorf("%w: use of uninitialized r%d at %d", errVerify, in.Src, pc)
		}
	} else {
		src = vreg{t: rtScalar, known: true, val: uint64(int64(in.Imm))}
	}

	is64 := in.Class() == ClassALU64
	if op == ALUMov {
		if !is64 {
			if src.t != rtScalar {
				return fmt.Errorf("%w: 32-bit mov of %v at %d", errVerify, src.t, pc)
			}
			src.val = uint64(uint32(src.val))
		}
		st.regs[in.Dst] = src
		return nil
	}

	// Every remaining op, neg included, reads its destination.
	dst := st.regs[in.Dst]
	if dst.t == rtUninit {
		return fmt.Errorf("%w: use of uninitialized r%d at %d", errVerify, in.Dst, pc)
	}
	if dst.pointer() {
		if !is64 || (op != ALUAdd && op != ALUSub) {
			return fmt.Errorf("%w: invalid arithmetic on %v at %d", errVerify, dst.t, pc)
		}
		if src.t != rtScalar || !src.known {
			return fmt.Errorf("%w: pointer arithmetic with unbounded scalar at %d", errVerify, pc)
		}
		off, _ := aluSem(op, true, uint64(dst.off), src.val)
		dst.off = int64(off)
		st.regs[in.Dst] = dst
		return nil
	}
	if dst.t != rtScalar {
		return fmt.Errorf("%w: arithmetic on %v at %d", errVerify, dst.t, pc)
	}
	if src.t != rtScalar {
		return fmt.Errorf("%w: arithmetic with %v source at %d", errVerify, src.t, pc)
	}

	// Known scalars fold through the same function the runtimes compute with.
	val, ok := aluSem(op, is64, dst.val, src.val)
	if !ok {
		return fmt.Errorf("%w: unknown ALU op %#x at %d", errVerify, op, pc)
	}
	out := vreg{t: rtScalar}
	if dst.known && src.known {
		out.known, out.val = true, val
	}
	st.regs[in.Dst] = out
	return nil
}

// checkMem validates a sized access through reg at reg.off+off.
func (v *Verifier) checkMem(st *vstate, reg vreg, off int64, size int, write bool, pc int) error {
	start := reg.off + off
	switch reg.t {
	case rtCtx:
		if !inWindow(start, size, v.CtxSize) {
			return fmt.Errorf("%w: ctx access [%d,+%d) outside %d bytes at %d", errVerify, start, size, v.CtxSize, pc)
		}
	case rtStack:
		if !inWindow(start, size, StackSize) {
			return fmt.Errorf("%w: stack access [%d,+%d) out of bounds at %d", errVerify, start, size, pc)
		}
		if write {
			for i := int64(0); i < int64(size); i++ {
				st.stackInit[start+i] = true
			}
		} else {
			for i := int64(0); i < int64(size); i++ {
				if !st.stackInit[start+i] {
					return fmt.Errorf("%w: read of uninitialized stack byte %d at %d", errVerify, start+i, pc)
				}
			}
		}
	case rtMapValue:
		if !inWindow(start, size, reg.m.ValueSize()) {
			return fmt.Errorf("%w: map value access [%d,+%d) outside %d bytes at %d", errVerify, start, size, reg.m.ValueSize(), pc)
		}
	case rtMapValueOrNull:
		return fmt.Errorf("%w: possibly-NULL map value dereference at %d (missing null check)", errVerify, pc)
	case rtUninit:
		return fmt.Errorf("%w: memory access through uninitialized register at %d", errVerify, pc)
	default:
		return fmt.Errorf("%w: memory access through %v at %d", errVerify, reg.t, pc)
	}
	return nil
}

func (v *Verifier) checkCall(st *vstate, in Insn, pc int) error {
	h, ok := helpers[in.Imm]
	if !ok {
		return fmt.Errorf("%w: call to unknown helper %d at %d", errVerify, in.Imm, pc)
	}
	var m Map
	for i, at := range h.args {
		reg := st.regs[R1+i]
		switch at {
		case argMapPtr:
			if reg.t != rtMapPtr {
				return fmt.Errorf("%w: %s arg%d: want map pointer, have %v at %d", errVerify, h.name, i+1, reg.t, pc)
			}
			m = reg.m
		case argPtrToMapKey, argPtrToMapValue:
			if m == nil {
				return fmt.Errorf("%w: %s arg%d: no map in r1 at %d", errVerify, h.name, i+1, pc)
			}
			want := m.KeySize()
			if at == argPtrToMapValue {
				want = m.ValueSize()
			}
			if err := v.checkMem(st, reg, 0, want, false, pc); err != nil {
				return fmt.Errorf("%s arg%d: %w", h.name, i+1, err)
			}
		case argScalar:
			if reg.t != rtScalar {
				return fmt.Errorf("%w: %s arg%d: want scalar, have %v at %d", errVerify, h.name, i+1, reg.t, pc)
			}
		}
	}
	for i := R1; i <= R5; i++ {
		st.regs[i] = vreg{}
	}
	switch h.ret {
	case retMapValueOrNull:
		st.regs[R0] = vreg{t: rtMapValueOrNull, m: m}
	default:
		st.regs[R0] = vreg{t: rtScalar}
	}
	return nil
}

// checkBranch validates a conditional jump and returns the refined states
// for the taken and fall-through paths.
func (v *Verifier) checkBranch(st *vstate, in Insn, pc int) (taken, fall *vstate, err error) {
	op := in.Op & 0xf0
	if rowOf(condTable[:], op) < 0 {
		return nil, nil, fmt.Errorf("%w: unknown jump op %#x at %d", errVerify, op, pc)
	}
	dst := st.regs[in.Dst]
	if dst.t == rtUninit {
		return nil, nil, fmt.Errorf("%w: branch on uninitialized r%d at %d", errVerify, in.Dst, pc)
	}
	src := vreg{t: rtScalar, known: true, val: uint64(int64(in.Imm))}
	if in.Op&SrcX != 0 {
		src = st.regs[in.Src]
		if src.t == rtUninit {
			return nil, nil, fmt.Errorf("%w: branch on uninitialized r%d at %d", errVerify, in.Src, pc)
		}
		if dst.pointer() || src.pointer() || dst.t == rtMapPtr || src.t == rtMapPtr {
			return nil, nil, fmt.Errorf("%w: pointer comparison at %d", errVerify, pc)
		}
	}

	taken, fall = st.clone(), st
	// NULL-check refinement: `if (r == 0)` / `if (r != 0)` on a maybe-null
	// map value narrows the type on each side.
	if dst.t == rtMapValueOrNull {
		if (op != JmpEq && op != JmpNe) || !src.known || src.val != 0 {
			return nil, nil, fmt.Errorf("%w: %v used in non-null-check comparison at %d", errVerify, dst.t, pc)
		}
		null := vreg{t: rtScalar, known: true, val: 0}
		valid := vreg{t: rtMapValue, m: dst.m, off: dst.off}
		if op == JmpEq {
			taken.regs[in.Dst] = null
			fall.regs[in.Dst] = valid
		} else {
			taken.regs[in.Dst] = valid
			fall.regs[in.Dst] = null
		}
		return taken, fall, nil
	}
	if dst.t != rtScalar {
		return nil, nil, fmt.Errorf("%w: comparison on %v at %d", errVerify, dst.t, pc)
	}
	// Known operands decide the branch: the edge the runtime cannot take is
	// dead on this path.
	if dst.known && src.known {
		if t, _ := condSem(op, dst.val, src.val); t {
			fall.dead = true
		} else {
			taken.dead = true
		}
	}
	return taken, fall, nil
}
