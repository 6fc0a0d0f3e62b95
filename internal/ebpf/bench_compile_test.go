package ebpf

import "testing"

// BenchmarkVMRun compares the interpreter (reference tier) with the
// compiled tier on the two canonical classifier shapes: a branchy
// straight-line program and a map-lookup program. Before/after numbers are
// committed under results/microbench.txt.

func benchSimpleProgram() *Program {
	return NewBuilder().
		Load(SizeB, R2, R1, 0).
		JumpImm(JmpEq, R2, 1, "write").
		Return(0x11).
		Label("write").
		Return(0x22).MustProgram("bench")
}

func benchMapProgram(m *ArrayMap) *Program {
	return NewBuilder().
		MovImm(R2, 0).
		Store(SizeW, R10, -4, R2).
		LoadMap(R1, m).
		MovReg(R2, R10).AddImm(R2, -4).
		Call(HelperMapLookup).
		JumpImm(JmpEq, R0, 0, "miss").
		Load(SizeDW, R0, R0, 0).
		Exit().
		Label("miss").Return(0).MustProgram("benchmap")
}

func BenchmarkVMRun(b *testing.B) {
	simple := benchSimpleProgram()
	arr := NewArrayMap(8, 4)
	maplookup := benchMapProgram(arr)
	ctx := []byte{1}

	b.Run("interpreter/simple", func(b *testing.B) {
		vm := NewVM(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vm.Run(simple, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled/simple", func(b *testing.B) {
		cp, err := Compile(simple, &Verifier{CtxSize: 1})
		if err != nil {
			b.Fatal(err)
		}
		vm := NewVM(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vm.RunCompiled(cp, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpreter/maplookup", func(b *testing.B) {
		vm := NewVM(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vm.Run(maplookup, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled/maplookup", func(b *testing.B) {
		cp, err := Compile(maplookup, &Verifier{})
		if err != nil {
			b.Fatal(err)
		}
		vm := NewVM(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vm.RunCompiled(cp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures the one-time load cost of the compile pass
// (excluding verification), for comparison with BenchmarkVerifier.
func BenchmarkCompile(b *testing.B) {
	arr := NewArrayMap(8, 4)
	p := benchMapProgram(arr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compile(p); err != nil {
			b.Fatal(err)
		}
	}
}
