package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Compiled-tier execution engine. RunCompiled executes the pre-decoded op
// stream produced by Compile with zero heap allocations on the hot path:
// registers are untagged creg values whose pointer-ness is encoded by a
// non-nil byte window, map values are referenced as plain slices (ArrayMap
// and HashMap lookups both return views of storage the map already owns),
// and fault errors are only constructed after a fault has actually occurred.

// creg is a compiled-tier register. data == nil means scalar n; otherwise
// the register is a pointer to offset n within data. mapIdx is the 1-based
// program map index for map references (0 = not a map reference).
type creg struct {
	n      uint64
	data   []byte
	mapIdx int32
}

// cfault classifies a runtime fault in the compiled tier; the error itself
// is built cold in cfail.
type cfaultKind uint8

const (
	cfMem cfaultKind = iota + 1
	cfMap
	cfHelperArg
	cfUnknownHelper
	cfBadOp
)

// emptyCtx substitutes for a nil ctx so that r1 still carries a (zero-length)
// window rather than looking like a scalar.
var emptyCtx = make([]byte, 0)

// prandomU32 is the deterministic PRNG shared by both tiers (see the
// get_prandom_u32 helper): xorshift seeded from the invocation count.
func prandomU32(invocations uint64) uint64 {
	x := invocations*2654435761 + 12345
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return uint64(uint32(x))
}

// cfail builds the fault error; kept out of RunCompiled so the hot loop has
// no fmt machinery on the success path.
func (vm *VM) cfail(cp *CompiledProgram, pc int, k cfaultKind) (uint64, error) {
	insn := cp.insnOf[pc]
	switch k {
	case cfMap:
		return 0, fmt.Errorf("%w: bad map reference at insn %d", ErrFault, insn)
	case cfHelperArg:
		return 0, fmt.Errorf("%w: helper argument out of bounds at insn %d", ErrFault, insn)
	case cfUnknownHelper:
		return 0, fmt.Errorf("%w: unknown helper at insn %d", ErrFault, insn)
	case cfBadOp:
		return 0, fmt.Errorf("%w: undefined op at insn %d", ErrFault, insn)
	default:
		return 0, fmt.Errorf("%w: memory access out of bounds at insn %d", ErrFault, insn)
	}
}

// RunCompiled executes a compiled program with ctx mapped read-write at r1,
// returning the program's r0 exit value. Semantics are identical to Run on
// the same program (the randomized differential test enforces this); the
// tagged-value checks are elided because the verifier proved them, while
// memory bounds and the fuel limit remain as defense in depth.
func (vm *VM) RunCompiled(cp *CompiledProgram, ctx []byte) (uint64, error) {
	vm.Invocations++
	vm.QoSClass = 0
	if vm.stackLow < StackSize {
		clear(vm.stack[vm.stackLow:])
		vm.stackLow = StackSize
	}
	if ctx == nil {
		ctx = emptyCtx
	}
	r := &vm.cregs
	// The verifier forbids reading uninitialized registers, so only r1 and
	// r10 need setting; stale windows in other slots are unreachable.
	r[R0] = creg{}
	r[R1] = creg{data: ctx}
	r[R10] = creg{n: StackSize, data: vm.stack[:]}

	ops := cp.ops
	startInsns := vm.InsnCount
	pc := 0
	for {
		if vm.InsnCount-startInsns >= MaxRuntimeInsns {
			return 0, ErrFuel
		}
		vm.InsnCount++
		o := &ops[pc]
		at := pc
		pc++
		switch o.code {
		case cExit:
			return r[R0].n, nil

		case cMovImm:
			r[o.dst] = creg{n: o.imm}
		case cLdMap:
			r[o.dst] = creg{mapIdx: o.off + 1}
		case cMovReg:
			r[o.dst] = r[o.src]
		case cMovReg32:
			r[o.dst] = creg{n: uint64(uint32(r[o.src].n))}

		case cALU:
			// A 64-bit result keeps dst's pointer window (pointer add/sub
			// moves only n); a 32-bit result is a fresh scalar.
			d, b := &r[o.dst], o.imm
			if o.regSrc() {
				b = r[o.src].n
			}
			n, _ := aluSem(o.nibble(), o.is64(), d.n, b)
			if o.is64() {
				d.n = n
			} else {
				*d = creg{n: n}
			}

		case cLd8:
			s := &r[o.src]
			pos := int64(s.n) + int64(o.off)
			if !inWindow(pos, 1, len(s.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			r[o.dst] = creg{n: uint64(s.data[pos])}
		case cLd16:
			s := &r[o.src]
			pos := int64(s.n) + int64(o.off)
			if !inWindow(pos, 2, len(s.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			r[o.dst] = creg{n: uint64(binary.LittleEndian.Uint16(s.data[pos:]))}
		case cLd32:
			s := &r[o.src]
			pos := int64(s.n) + int64(o.off)
			if !inWindow(pos, 4, len(s.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			r[o.dst] = creg{n: uint64(binary.LittleEndian.Uint32(s.data[pos:]))}
		case cLd64:
			s := &r[o.src]
			pos := int64(s.n) + int64(o.off)
			if !inWindow(pos, 8, len(s.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			r[o.dst] = creg{n: binary.LittleEndian.Uint64(s.data[pos:])}

		case cSt8, cStImm8:
			d := &r[o.dst]
			pos := int64(d.n) + int64(o.off)
			if !inWindow(pos, 1, len(d.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			v := o.imm
			if o.code == cSt8 {
				v = r[o.src].n
			}
			d.data[pos] = byte(v)
			vm.markStackWrite(d.data, pos)
		case cSt16, cStImm16:
			d := &r[o.dst]
			pos := int64(d.n) + int64(o.off)
			if !inWindow(pos, 2, len(d.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			v := o.imm
			if o.code == cSt16 {
				v = r[o.src].n
			}
			binary.LittleEndian.PutUint16(d.data[pos:], uint16(v))
			vm.markStackWrite(d.data, pos)
		case cSt32, cStImm32:
			d := &r[o.dst]
			pos := int64(d.n) + int64(o.off)
			if !inWindow(pos, 4, len(d.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			v := o.imm
			if o.code == cSt32 {
				v = r[o.src].n
			}
			binary.LittleEndian.PutUint32(d.data[pos:], uint32(v))
			vm.markStackWrite(d.data, pos)
		case cSt64, cStImm64:
			d := &r[o.dst]
			pos := int64(d.n) + int64(o.off)
			if !inWindow(pos, 8, len(d.data)) {
				return vm.cfail(cp, at, cfMem)
			}
			v := o.imm
			if o.code == cSt64 {
				v = r[o.src].n
			}
			binary.LittleEndian.PutUint64(d.data[pos:], v)
			vm.markStackWrite(d.data, pos)

		case cJa:
			pc = int(o.off)
		case cJmp:
			d, b := &r[o.dst], o.imm
			if o.regSrc() {
				s := &r[o.src]
				b = cmpOperand(s.data != nil, s.n)
			}
			if taken, _ := condSem(o.nibble(), cmpOperand(d.data != nil, d.n), b); taken {
				pc = int(o.off)
			}

		case cCallLookup:
			m, key, ok := vm.ccallMapKey(cp, r)
			if !ok {
				return vm.cfail(cp, at, cfHelperArg)
			}
			var out creg
			if am := cp.arrs[r[R1].mapIdx-1]; am != nil {
				// Inline ArrayMap fast path: index math instead of the
				// interface call (key length 4 is guaranteed by KeySize).
				if i := int(binary.LittleEndian.Uint32(key)); i < am.maxEntries {
					out = creg{data: am.data[i*am.valueSize : (i+1)*am.valueSize]}
				}
			} else if v := m.Lookup(key); v != nil {
				out = creg{data: v}
			}
			r[R0] = out
			r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
		case cCallUpdate:
			m, key, ok := vm.ccallMapKey(cp, r)
			if !ok {
				return vm.cfail(cp, at, cfHelperArg)
			}
			value, ok := cwindow(&r[R3], m.ValueSize())
			if !ok {
				return vm.cfail(cp, at, cfHelperArg)
			}
			if m.Update(key, value) != nil {
				r[R0] = creg{n: ^uint64(0)} // -1
			} else {
				r[R0] = creg{}
			}
			r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
		case cCallDelete:
			m, key, ok := vm.ccallMapKey(cp, r)
			if !ok {
				return vm.cfail(cp, at, cfHelperArg)
			}
			if !m.Delete(key) {
				r[R0] = creg{n: ^uint64(0)}
			} else {
				r[R0] = creg{}
			}
			r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
		case cCallPrandom:
			r[R0] = creg{n: prandomU32(vm.Invocations)}
			r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
		case cCallQoS:
			if c := r[R1].n; c < qosNumClasses {
				vm.QoSClass = uint8(c)
				r[R0] = creg{}
			} else {
				r[R0] = creg{n: ^uint64(0)}
			}
			r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
		case cCallGeneric:
			h := vm.helpers.get(int32(uint32(o.imm)))
			if h == nil {
				return vm.cfail(cp, at, cfUnknownHelper)
			}
			if err := vm.ccallGeneric(cp, r, h); err != nil {
				return 0, err
			}

		default:
			return vm.cfail(cp, at, cfBadOp)
		}
	}
}

// markStackWrite maintains the stack low-water mark so the next invocation
// clears only the dirtied suffix.
func (vm *VM) markStackWrite(w []byte, pos int64) {
	if &w[0] == &vm.stack[0] && int(pos) < vm.stackLow {
		vm.stackLow = int(pos)
	}
}

// ccallMapKey resolves r1 (map reference) and r2 (key window) for the
// compiled map helpers.
func (vm *VM) ccallMapKey(cp *CompiledProgram, r *[NumRegs]creg) (Map, []byte, bool) {
	mi := r[R1].mapIdx
	if mi <= 0 || int(mi) > len(cp.maps) {
		return nil, nil, false
	}
	m := cp.maps[mi-1]
	key, ok := cwindow(&r[R2], m.KeySize())
	if !ok {
		return nil, nil, false
	}
	return m, key, true
}

// cwindow bounds-checks an n-byte window at a pointer register.
func cwindow(r *creg, n int) ([]byte, bool) {
	pos := int64(r.n)
	if r.data == nil || !inWindow(pos, n, len(r.data)) {
		return nil, false
	}
	return r.data[pos : pos+int64(n)], true
}

// ccallGeneric calls h, a non-specialized helper from the VM's registry,
// converting between compiled and tagged register forms. This
// path may allocate; no shipped classifier uses custom helpers.
func (vm *VM) ccallGeneric(cp *CompiledProgram, r *[NumRegs]creg, h *helperImpl) error {
	var tagged [NumRegs]val
	for i := range r {
		c := &r[i]
		switch {
		case c.mapIdx > 0 && int(c.mapIdx) <= len(cp.maps):
			tagged[i] = val{kind: kMap, m: cp.maps[c.mapIdx-1]}
		case c.data != nil:
			tagged[i] = val{kind: kPtr, n: c.n, mem: &memRegion{data: c.data, writable: true}}
		default:
			tagged[i] = scalar(c.n)
		}
	}
	ret, err := h.fn(vm, tagged[:])
	if err != nil {
		return err
	}
	switch ret.kind {
	case kPtr:
		r[R0] = creg{n: ret.n, data: ret.mem.data}
	case kMap:
		r[R0] = creg{} // helpers never return map refs in this subset
	default:
		r[R0] = creg{n: ret.n}
	}
	r[R1], r[R2], r[R3], r[R4], r[R5] = creg{}, creg{}, creg{}, creg{}, creg{}
	// A custom helper may have written anywhere in the stack window it was
	// handed; be conservative about the next invocation's clear.
	vm.stackLow = 0
	return nil
}
