package ebpf

import "testing"

// staticCtxSize mirrors the router's classifier ctx window.
const staticCtxSize = 96

func mustCompile(t *testing.T, b *Builder, name string) *CompiledProgram {
	t.Helper()
	p := b.MustProgram(name)
	cp, err := Compile(p, &Verifier{CtxSize: staticCtxSize})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return cp
}

// staticCase is one shape the static verdict must get right: the program,
// and the constant it must prove when proves is set.
type staticCase struct {
	build  func() *Builder
	proves bool
	want   uint64
}

// lookupKey0 emits a lookup of key 0 in an 8-entry array map, leaving the
// maybe-null value in r0.
func lookupKey0(b *Builder) *Builder {
	return b.StoreImm(SizeW, R10, -4, 0).LoadMap(R1, NewArrayMap(8, 4)).
		MovReg(R2, R10).AddImm(R2, -4).Call(HelperMapLookup)
}

// staticCases are the shapes by name. Each TestStaticVerdict* test checks
// some; TestVerdictMatchesReference and FuzzVerifiedProgram's seed corpus run
// all of them.
var staticCases = map[string]staticCase{
	// The canonical fast-path classifier: a single constant return.
	"const": {func() *Builder { return NewBuilder().MovImm64(R0, 0x410000).Exit() }, true, 0x410000},
	// A branch whose condition folds leaves the divergent verdict dead.
	"deadbranch": {func() *Builder {
		return NewBuilder().MovImm(R6, 5).JumpImm(JmpEq, R6, 5, "fast").
			MovImm64(R0, 0x999).Exit().
			Label("fast").MovImm64(R0, 0x410000).Exit()
	}, true, 0x410000},
	// A store on a dead path is no effect.
	"deadstore": {func() *Builder {
		return NewBuilder().MovImm(R6, 5).JumpImm(JmpEq, R6, 5, "fast").
			StoreImm(SizeW, R1, 0, 7).MovImm64(R0, 0x410000).Exit().
			Label("fast").MovImm64(R0, 0x410000).Exit()
	}, true, 0x410000},
	// A runtime-dependent branch whose arms agree.
	"same-const": {func() *Builder {
		return NewBuilder().Load(SizeW, R2, R1, 0).JumpImm(JmpEq, R2, 0, "a").
			MovImm64(R0, 0x410000).Exit().
			Label("a").MovImm64(R0, 0x410000).Exit()
	}, true, 0x410000},
	// Arms that disagree on a loaded value.
	"diff-const": {func() *Builder {
		return NewBuilder().Load(SizeW, R2, R1, 0).JumpImm(JmpEq, R2, 0, "a").
			MovImm64(R0, 0x410000).Exit().
			Label("a").MovImm64(R0, 0x20000).Exit()
	}, false, 0},
	// A diamond that makes r3 == r4 on either arm, then compares them: each
	// path knows both, a join of the arms knows neither.
	"diamond-equal": {func() *Builder {
		return NewBuilder().Load(SizeW, R2, R1, 0).JumpImm(JmpEq, R2, 0, "a").
			MovImm(R3, 1).MovImm(R4, 1).Jump("join").
			Label("a").MovImm(R3, 2).MovImm(R4, 2).
			Label("join").JumpReg(JmpEq, R3, R4, "fast").
			MovImm64(R0, 0x20000).Exit().
			Label("fast").MovImm64(R0, 0x410000).Exit()
	}, true, 0x410000},
	// Writing the command back through ctx is an observable effect.
	"ctx-store": {func() *Builder { return NewBuilder().StoreImm(SizeW, R1, 0, 7).MovImm64(R0, 0x410000).Exit() }, false, 0},
	// Scratch writes die with the invocation.
	"stack-store": {func() *Builder {
		return NewBuilder().StoreImm(SizeDW, R10, -8, 42).Load(SizeDW, R3, R10, -8).MovImm64(R0, 0x410000).Exit()
	}, true, 0x410000},
	// An unused map lookup is side-effect free.
	"lookup": {func() *Builder { return lookupKey0(NewBuilder()).MovImm64(R0, 0x410000).Exit() }, true, 0x410000},
	// The partition-classifier shape: the verdict depends on a null check.
	"lookup-branch": {func() *Builder {
		return lookupKey0(NewBuilder()).JumpImm(JmpEq, R0, 0, "miss").
			MovImm64(R0, 0x410000).Exit().
			Label("miss").MovImm64(R0, 0x20000).Exit()
	}, false, 0},
	// Map mutation.
	"update": {func() *Builder {
		return NewBuilder().StoreImm(SizeW, R10, -4, 0).StoreImm(SizeDW, R10, -16, 1).
			LoadMap(R1, NewArrayMap(8, 4)).MovReg(R2, R10).AddImm(R2, -4).
			MovReg(R3, R10).AddImm(R3, -16).MovImm(R4, 0).Call(helperMapUpdate).
			MovImm64(R0, 0x410000).Exit()
	}, false, 0},
	// The verdict may be computed, as long as every operand folds.
	"alu": {func() *Builder { return NewBuilder().MovImm(R0, 0x41).ALUImm(ALULsh, R0, 16).Exit() }, true, 0x410000},
	// prandom is pure but its result is unknown: ignoring it proves, using it
	// as the verdict must not.
	"prandom-ignored": {func() *Builder { return NewBuilder().Call(helperGetPrandom).MovImm64(R0, 0x410000).Exit() }, true, 0x410000},
	"prandom-verdict": {func() *Builder { return NewBuilder().Call(helperGetPrandom).Exit() }, false, 0},
}

// checkStatic compiles the named cases and checks each verdict; a proved
// verdict must also be what an invocation returns.
func checkStatic(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		c := staticCases[name]
		cp := mustCompile(t, c.build(), name)
		v, ok := cp.StaticVerdict()
		if ok != c.proves || v != c.want {
			t.Errorf("%s: StaticVerdict = %#x, %v; want %#x, %v", name, v, ok, c.want, c.proves)
			continue
		}
		if got, err := NewVM(nil).RunCompiled(cp, make([]byte, staticCtxSize)); ok && (err != nil || got != v) {
			t.Errorf("%s: RunCompiled = %#x, %v; want %#x", name, got, err, v)
		}
	}
}

func TestStaticVerdictConstant(t *testing.T)            { checkStatic(t, "const") }
func TestStaticVerdictDeadBranch(t *testing.T)          { checkStatic(t, "deadbranch", "deadstore") }
func TestStaticVerdictDataBranchSameConst(t *testing.T) { checkStatic(t, "same-const") }
func TestStaticVerdictDataBranchDiffers(t *testing.T)   { checkStatic(t, "diff-const") }
func TestStaticVerdictPathSensitive(t *testing.T)       { checkStatic(t, "diamond-equal") }
func TestStaticVerdictCtxStoreImpure(t *testing.T)      { checkStatic(t, "ctx-store") }
func TestStaticVerdictStackStorePure(t *testing.T)      { checkStatic(t, "stack-store") }
func TestStaticVerdictLookupPure(t *testing.T)          { checkStatic(t, "lookup") }
func TestStaticVerdictLookupBranchImpure(t *testing.T)  { checkStatic(t, "lookup-branch") }
func TestStaticVerdictUpdateImpure(t *testing.T)        { checkStatic(t, "update") }
func TestStaticVerdictFoldedALU(t *testing.T)           { checkStatic(t, "alu") }
func TestStaticVerdictPrandomPure(t *testing.T)         { checkStatic(t, "prandom-ignored", "prandom-verdict") }

// TestStaticVerdictUnverified: a program compiled without verification
// proves nothing, however constant it is.
func TestStaticVerdictUnverified(t *testing.T) {
	cp, err := compile(staticCases["const"].build().MustProgram("const"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cp.StaticVerdict(); ok {
		t.Fatalf("unverified program proved %#x", v)
	}
}
