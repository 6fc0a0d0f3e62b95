package ebpf

import "fmt"

// Builder assembles programs from Go with symbolic labels, the equivalent of
// writing a classifier in restricted C and compiling it. Jump offsets are
// resolved at Program() time.
type Builder struct {
	insns  []Insn
	labels map[string]int // label -> insn index
	fixups map[int]string // insn index -> target label
	maps   []Map
	mapIdx map[Map]int
	err    error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int), fixups: make(map[int]string), mapIdx: make(map[Map]int)}
}

func (b *Builder) emit(in Insn) *Builder {
	b.insns = append(b.insns, in)
	return b
}

// Label defines a jump target at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
	}
	b.labels[name] = len(b.insns)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("ebpf builder: "+format, args...)
	}
}

// MovImm sets dst to a 32-bit immediate (sign-extended).
func (b *Builder) MovImm(dst uint8, imm int32) *Builder {
	return b.emit(Insn{Op: ClassALU64 | ALUMov | SrcK, Dst: dst, Imm: imm})
}

// MovImm64 loads a full 64-bit constant (two slots).
func (b *Builder) MovImm64(dst uint8, imm uint64) *Builder {
	b.emit(Insn{Op: OpLdImm64, Dst: dst, Imm: int32(uint32(imm))})
	return b.emit(Insn{Imm: int32(uint32(imm >> 32))})
}

// MovReg copies src into dst.
func (b *Builder) MovReg(dst, src uint8) *Builder {
	return b.emit(Insn{Op: ClassALU64 | ALUMov | SrcX, Dst: dst, Src: src})
}

// LoadMap loads a reference to m into dst, registering the map with the
// program.
func (b *Builder) LoadMap(dst uint8, m Map) *Builder {
	idx, ok := b.mapIdx[m]
	if !ok {
		idx = len(b.maps)
		b.maps = append(b.maps, m)
		b.mapIdx[m] = idx
	}
	b.emit(Insn{Op: OpLdImm64, Dst: dst, Src: PseudoMapFD, Imm: int32(idx)})
	return b.emit(Insn{})
}

// ALU emits a 64-bit ALU op with register source (e.g. ALUAdd).
func (b *Builder) ALU(op uint8, dst, src uint8) *Builder {
	return b.emit(Insn{Op: ClassALU64 | op | SrcX, Dst: dst, Src: src})
}

// ALUImm emits a 64-bit ALU op with an immediate source.
func (b *Builder) ALUImm(op uint8, dst uint8, imm int32) *Builder {
	return b.emit(Insn{Op: ClassALU64 | op | SrcK, Dst: dst, Imm: imm})
}

// ALU32Imm emits a 32-bit ALU op with an immediate source.
func (b *Builder) ALU32Imm(op uint8, dst uint8, imm int32) *Builder {
	return b.emit(Insn{Op: ClassALU | op | SrcK, Dst: dst, Imm: imm})
}

// AddImm is shorthand for ALUImm(ALUAdd, ...).
func (b *Builder) AddImm(dst uint8, imm int32) *Builder { return b.ALUImm(ALUAdd, dst, imm) }

// Load emits dst = *(size*)(src+off).
func (b *Builder) Load(size uint8, dst, src uint8, off int16) *Builder {
	return b.emit(Insn{Op: ClassLDX | size | ModeMEM, Dst: dst, Src: src, Off: off})
}

// Store emits *(size*)(dst+off) = src.
func (b *Builder) Store(size uint8, dst uint8, off int16, src uint8) *Builder {
	return b.emit(Insn{Op: ClassSTX | size | ModeMEM, Dst: dst, Src: src, Off: off})
}

// StoreImm emits *(size*)(dst+off) = imm.
func (b *Builder) StoreImm(size uint8, dst uint8, off int16, imm int32) *Builder {
	return b.emit(Insn{Op: ClassST | size | ModeMEM, Dst: dst, Off: off, Imm: imm})
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) *Builder {
	b.fixups[len(b.insns)] = label
	return b.emit(Insn{Op: ClassJMP | JmpA})
}

// JumpImm emits `if dst <op> imm goto label`.
func (b *Builder) JumpImm(op uint8, dst uint8, imm int32, label string) *Builder {
	b.fixups[len(b.insns)] = label
	return b.emit(Insn{Op: ClassJMP | op | SrcK, Dst: dst, Imm: imm})
}

// JumpReg emits `if dst <op> src goto label`.
func (b *Builder) JumpReg(op uint8, dst, src uint8, label string) *Builder {
	b.fixups[len(b.insns)] = label
	return b.emit(Insn{Op: ClassJMP | op | SrcX, Dst: dst, Src: src})
}

// Call emits a helper call.
func (b *Builder) Call(helper int32) *Builder {
	return b.emit(Insn{Op: ClassJMP | JmpCall, Imm: helper})
}

// Exit emits the program exit.
func (b *Builder) Exit() *Builder {
	return b.emit(Insn{Op: ClassJMP | JmpExit})
}

// Return emits `r0 = imm; exit`.
func (b *Builder) Return(imm int32) *Builder {
	return b.MovImm(R0, imm).Exit()
}

// Program resolves labels and returns the assembled program.
func (b *Builder) Program(name string) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	insns := make([]Insn, len(b.insns))
	copy(insns, b.insns)
	for idx, label := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("ebpf builder: undefined label %q", label)
		}
		insns[idx].Off = int16(target - idx - 1)
	}
	return &Program{Insns: insns, Maps: b.maps, Name: name}, nil
}

// MustProgram is Program that panics on error (for static classifiers).
func (b *Builder) MustProgram(name string) *Program {
	p, err := b.Program(name)
	if err != nil {
		panic(err)
	}
	return p
}
