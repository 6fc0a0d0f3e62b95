package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxRuntimeInsns is the interpreter fuel limit: a defense-in-depth bound in
// case an unverified program is executed directly.
const maxRuntimeInsns = 1 << 16

// errFault is returned for runtime memory violations.
var errFault = errors.New("ebpf: runtime fault")

// errFuel is returned when a program exceeds the instruction budget.
var errFuel = errors.New("ebpf: instruction budget exceeded")

type vkind uint8

const (
	kScalar vkind = iota
	kPtr
	kMap
)

// memRegion is a runtime memory window a pointer value may reference.
type memRegion struct {
	data     []byte
	writable bool
}

// val is a tagged runtime register value.
type val struct {
	kind vkind
	n    uint64 // scalar value, or offset within mem
	mem  *memRegion
	m    Map
}

func scalar(n uint64) val { return val{kind: kScalar, n: n} }

// VM executes verified programs. A VM is reusable across invocations and
// amortizes the stack allocation; it is not safe for concurrent use (in the
// simulation every classifier invocation happens under the single run token,
// matching per-CPU execution in the kernel).
type VM struct {
	stack [StackSize]byte
	regs  [NumRegs]val
	cregs [NumRegs]creg
	// Both memory regions live in the VM so Run performs no per-invocation
	// heap allocation; the ctx window is re-pointed on every call.
	stackRegion memRegion
	ctxRegion   memRegion
	// stackLow is the low-water mark of stack writes since the last clear
	// (the stack grows down): the next invocation only clears [stackLow:).
	stackLow int
	// Stats
	Invocations uint64
}

// NewVM creates a VM. The argument is ignored; pass nil. It goes once the
// benchmark stops passing it (ROADMAP item 1).
func NewVM(_ *struct{}) *VM {
	vm := &VM{stackLow: StackSize}
	vm.stackRegion = memRegion{data: vm.stack[:], writable: true}
	return vm
}

// Run executes the program with ctx mapped read-write at r1.
// It returns the program's r0 exit value.
func (vm *VM) Run(p *Program, ctx []byte) (uint64, error) {
	vm.Invocations++
	if vm.stackLow < StackSize {
		clear(vm.stack[vm.stackLow:])
		vm.stackLow = StackSize
	}
	vm.ctxRegion = memRegion{data: ctx, writable: true}
	for i := range vm.regs {
		vm.regs[i] = scalar(0)
	}
	vm.regs[R1] = val{kind: kPtr, mem: &vm.ctxRegion, n: 0}
	vm.regs[R10] = val{kind: kPtr, mem: &vm.stackRegion, n: StackSize}

	r := vm.regs[:]
	pc := 0
	for fuel := 0; ; fuel++ {
		if fuel >= maxRuntimeInsns {
			return 0, errFuel
		}
		if pc < 0 || pc >= len(p.Insns) {
			return 0, fmt.Errorf("%w: pc %d out of program", errFault, pc)
		}
		in := p.Insns[pc]
		if in.Dst >= NumRegs || in.Src >= NumRegs {
			return 0, fmt.Errorf("%w: invalid register at %d", errFault, pc)
		}
		switch in.Class() {
		case ClassALU64, ClassALU:
			if err := vm.alu(r, in); err != nil {
				return 0, err
			}
		case ClassLD:
			if in.Op != OpLdImm64 {
				return 0, fmt.Errorf("%w: unsupported LD op %#x", errFault, in.Op)
			}
			if pc+1 >= len(p.Insns) {
				return 0, fmt.Errorf("%w: truncated ld_imm64", errFault)
			}
			next := p.Insns[pc+1]
			if in.Src == PseudoMapFD {
				idx := int(in.Imm)
				if idx < 0 || idx >= len(p.Maps) {
					return 0, fmt.Errorf("%w: bad map index %d", errFault, idx)
				}
				r[in.Dst] = val{kind: kMap, m: p.Maps[idx]}
			} else {
				r[in.Dst] = scalar(uint64(uint32(in.Imm)) | uint64(uint32(next.Imm))<<32)
			}
			pc++
		case ClassLDX:
			v, err := vm.load(r[in.Src], int64(in.Off), sizeOf(in.Op))
			if err != nil {
				return 0, err
			}
			r[in.Dst] = scalar(v)
		case ClassST:
			if err := vm.store(r[in.Dst], int64(in.Off), sizeOf(in.Op), uint64(uint32(in.Imm))); err != nil {
				return 0, err
			}
		case ClassSTX:
			if r[in.Src].kind != kScalar {
				return 0, fmt.Errorf("%w: storing non-scalar", errFault)
			}
			if err := vm.store(r[in.Dst], int64(in.Off), sizeOf(in.Op), r[in.Src].n); err != nil {
				return 0, err
			}
		case ClassJMP:
			op := in.Op & 0xf0
			switch op {
			case JmpExit:
				if r[R0].kind != kScalar {
					return 0, fmt.Errorf("%w: exit with pointer in r0", errFault)
				}
				return r[R0].n, nil
			case JmpCall:
				if err := vm.call(r, in.Imm); err != nil {
					return 0, err
				}
			case JmpA:
				pc += int(in.Off)
			default:
				taken, err := vm.branch(r, in)
				if err != nil {
					return 0, err
				}
				if taken {
					pc += int(in.Off)
				}
			}
		default:
			return 0, fmt.Errorf("%w: unknown class %#x", errFault, in.Class())
		}
		pc++
	}
}

func sizeOf(op uint8) int {
	switch op & 0x18 {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	default:
		return 8
	}
}

func (vm *VM) window(v val, off int64, size int, write bool) ([]byte, error) {
	if v.kind != kPtr {
		return nil, fmt.Errorf("%w: memory access through non-pointer", errFault)
	}
	start := int64(v.n) + off
	if !inWindow(start, size, len(v.mem.data)) {
		return nil, fmt.Errorf("%w: access [%d,+%d) outside region of %d bytes", errFault, start, size, len(v.mem.data))
	}
	if write && !v.mem.writable {
		return nil, fmt.Errorf("%w: write to read-only region", errFault)
	}
	return v.mem.data[start : start+int64(size)], nil
}

func (vm *VM) load(src val, off int64, size int) (uint64, error) {
	w, err := vm.window(src, off, size, false)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(w[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(w)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(w)), nil
	default:
		return binary.LittleEndian.Uint64(w), nil
	}
}

func (vm *VM) store(dst val, off int64, size int, v uint64) error {
	w, err := vm.window(dst, off, size, true)
	if err != nil {
		return err
	}
	if dst.mem == &vm.stackRegion {
		if start := int(int64(dst.n) + off); start < vm.stackLow {
			vm.stackLow = start
		}
	}
	switch size {
	case 1:
		w[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(w, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(w, uint32(v))
	default:
		binary.LittleEndian.PutUint64(w, v)
	}
	return nil
}

func (vm *VM) alu(r []val, in Insn) error {
	is64 := in.Class() == ClassALU64
	op := in.Op & 0xf0
	src := scalar(uint64(int64(in.Imm))) // sign-extended immediate
	if in.Op&SrcX != 0 {
		src = r[in.Src]
	}

	// MOV copies the whole tagged value; only a scalar can be narrowed.
	if op == ALUMov {
		if !is64 {
			if src.kind != kScalar {
				return fmt.Errorf("%w: 32-bit mov of pointer", errFault)
			}
			src.n = uint64(uint32(src.n))
		}
		r[in.Dst] = src
		return nil
	}
	if src.kind != kScalar {
		return fmt.Errorf("%w: ALU on pointer source", errFault)
	}

	// Pointer arithmetic: ptr +/- scalar keeps the region and moves n.
	dst := &r[in.Dst]
	switch {
	case dst.kind == kPtr && (!is64 || (op != ALUAdd && op != ALUSub)):
		return fmt.Errorf("%w: invalid pointer arithmetic", errFault)
	case dst.kind == kMap:
		return fmt.Errorf("%w: ALU on map reference", errFault)
	}
	out, ok := aluSem(op, is64, dst.n, src.n)
	if !ok {
		return fmt.Errorf("%w: unknown ALU op %#x", errFault, op)
	}
	dst.n = out
	return nil
}

func (vm *VM) branch(r []val, in Insn) (bool, error) {
	op := in.Op & 0xf0
	d := r[in.Dst]
	a, b := cmpOperand(d.kind == kPtr, d.n), uint64(int64(in.Imm))
	if in.Op&SrcX != 0 {
		s := r[in.Src]
		b = cmpOperand(s.kind == kPtr, s.n)
	}
	taken, ok := condSem(op, a, b)
	if !ok {
		return false, fmt.Errorf("%w: unknown jump op %#x", errFault, op)
	}
	return taken, nil
}

// call runs helper id on the tagged registers: r1 must be a map reference
// for the map helpers, and r2 (r3) a window of the map's key (value) size.
func (vm *VM) call(r []val, id int32) error {
	var ret val
	switch code := helpers[id].code; code {
	case cCallPrandom:
		ret = scalar(prandomU32(vm.Invocations))
	case cCallLookup, cCallUpdate, cCallDelete:
		if r[R1].kind != kMap {
			return fmt.Errorf("%w: helper %d without a map in r1", errFault, id)
		}
		m := r[R1].m
		key, err := vm.window(r[R2], 0, m.KeySize(), false)
		if err != nil {
			return err
		}
		switch code {
		case cCallLookup:
			ret = scalar(0)
			if v := m.Lookup(key); v != nil {
				ret = val{kind: kPtr, mem: &memRegion{data: v, writable: true}}
			}
		case cCallUpdate:
			value, err := vm.window(r[R3], 0, m.ValueSize(), false)
			if err != nil {
				return err
			}
			ret = scalar(mapUpdate(m, key, value))
		default:
			ret = scalar(mapDelete(m, key))
		}
	default:
		return fmt.Errorf("%w: unknown helper %d", errFault, id)
	}
	r[R0] = ret
	// r1-r5 are caller-saved and become unspecified; zero them for
	// determinism (the verifier already forbids reading them).
	for i := R1; i <= R5; i++ {
		r[i] = scalar(0)
	}
	return nil
}
