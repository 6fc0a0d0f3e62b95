package ebpf

// staticVerdictReference is the join-based static-verdict analysis that
// CompiledProgram.StaticVerdict ran before the verifier proved the verdict
// itself, kept as the reference TestVerdictMatchesReference holds the
// verifier to: every program it proves, the verifier must prove to the same
// constant.
//
// It is a forward abstract interpretation over the pre-decoded op stream
// with a lattice of its own: each register is Const(v), a pointer of known
// provenance (ctx or stack), a map reference, or Unknown. ALU ops fold
// constants through aluSem; conditional jumps with Const operands follow
// only the edge condSem takes; everything else joins both edges. Stack
// stores are allowed; any other store, and any helper beyond the pure
// lookup/prandom pair, vetoes the proof.

// Abstract register kinds. Non-const kinds keep n == 0 so aval values
// compare with ==.
const (
	avUnknown uint8 = iota // any scalar or pointer
	avConst                // scalar with known value n
	avCtx                  // pointer into the ctx window
	avStack                // pointer into the VM stack frame
	avPtr                  // pointer with other provenance (map value)
	avMap                  // map reference
)

// aval is one register's abstract value.
type aval struct {
	k uint8
	n uint64
}

// astate is the abstract machine state at one op boundary.
type astate [NumRegs]aval

func (v aval) isPtr() bool { return v.k == avCtx || v.k == avStack || v.k == avPtr }

// joinVal merges two abstract values at a control-flow join.
func joinVal(a, b aval) aval {
	if a == b {
		return a
	}
	if a.k == b.k && a.k != avConst {
		return aval{k: a.k}
	}
	return aval{k: avUnknown}
}

// staticBudget bounds the worklist in abstract steps per op; the lattice
// converges far earlier, this is a defensive cap only.
const staticBudget = 256

// staticVerdictReference reports whether the program provably returns the
// same constant on every reachable path with no externally observable
// effect, and if so, that constant.
func staticVerdictReference(cp *CompiledProgram) (verdict uint64, ok bool) {
	n := len(cp.ops)
	if n == 0 {
		return 0, false
	}
	states := make([]astate, n)
	queued := make([]bool, n)
	seen := make([]bool, n)

	var entry astate
	entry[R1] = aval{k: avCtx}
	entry[R10] = aval{k: avStack}
	states[0] = entry
	seen[0] = true
	work := []int{0}
	queued[0] = true

	// flow propagates state s into op t, requeueing t on change.
	flow := func(t int, s *astate) {
		if t < 0 || t >= n {
			return
		}
		if !seen[t] {
			seen[t] = true
			states[t] = *s
		} else {
			merged := states[t]
			changed := false
			for i := range merged {
				j := joinVal(merged[i], s[i])
				if j != merged[i] {
					merged[i] = j
					changed = true
				}
			}
			if !changed {
				return
			}
			states[t] = merged
		}
		if !queued[t] {
			queued[t] = true
			work = append(work, t)
		}
	}

	var (
		haveVerdict bool
		steps       int
	)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		queued[pc] = false
		steps++
		if steps > n*staticBudget {
			return 0, false // defensive: analysis did not converge
		}
		s := states[pc]
		o := &cp.ops[pc]

		// b is an ALU op's or a conditional jump's source operand.
		b := aval{k: avConst, n: o.imm}
		if o.regSrc() {
			b = s[o.src]
		}
		switch o.code {
		case cALU:
			d := s[o.dst]
			switch op := o.nibble(); {
			case d.isPtr() && o.is64() && (op == ALUAdd || op == ALUSub) && (b.k == avConst || b.k == avUnknown):
				// Pointer arithmetic moves the offset; provenance survives.
				s[o.dst] = aval{k: d.k}
			case d.k == avConst && b.k == avConst:
				n, _ := aluSem(op, o.is64(), d.n, b.n)
				s[o.dst] = aval{k: avConst, n: n}
			default:
				s[o.dst] = aval{k: avUnknown}
			}
		case cJmp:
			// Const operands follow only the edge the runtime takes
			// (cmpOperand is the identity on scalars); anything else joins
			// both edges.
			known := s[o.dst].k == avConst && b.k == avConst
			taken, _ := condSem(o.nibble(), s[o.dst].n, b.n)
			if !known || taken {
				flow(int(o.off), &s)
			}
			if !known || !taken {
				flow(pc+1, &s)
			}
			continue

		case cExit:
			r0 := s[R0]
			if r0.k != avConst {
				return 0, false
			}
			if haveVerdict && r0.n != verdict {
				return 0, false
			}
			verdict, haveVerdict = r0.n, true
			continue

		case cMovImm:
			s[o.dst] = aval{k: avConst, n: o.imm}
		case cLdMap:
			s[o.dst] = aval{k: avMap}
		case cMovReg:
			s[o.dst] = s[o.src]
		case cMovReg32:
			if v := s[o.src]; v.k == avConst {
				s[o.dst] = aval{k: avConst, n: uint64(uint32(v.n))}
			} else {
				s[o.dst] = aval{k: avUnknown}
			}

		case cLd8, cLd16, cLd32, cLd64:
			// Loads are pure; the loaded value is runtime-dependent.
			s[o.dst] = aval{k: avUnknown}

		case cSt8, cSt16, cSt32, cSt64, cStImm8, cStImm16, cStImm32, cStImm64:
			// Stack stores die with the invocation (the VM clears the
			// dirtied frame before the next run); any other destination —
			// ctx, a map value window, or unknown provenance — is an
			// observable effect and vetoes the proof.
			if s[o.dst].k != avStack {
				return 0, false
			}

		case cJa:
			flow(int(o.off), &s)
			continue
		case cCallLookup, cCallPrandom:
			// Pure: lookup returns a map-value pointer or null and mutates
			// nothing; prandom derives from the invocation counter without
			// advancing state. Result and caller-saved registers become
			// unknown, exactly as RunCompiled clobbers them.
			for _, reg := range [...]uint8{R0, R1, R2, R3, R4, R5} {
				s[reg] = aval{k: avUnknown}
			}

		case cCallUpdate, cCallDelete:
			// Map mutation: externally observable.
			return 0, false

		default:
			return 0, false
		}
		flow(pc+1, &s)
	}
	if !haveVerdict {
		return 0, false
	}
	return verdict, true
}
