package nvmetro_test

// TestDeadSurface keeps the module's surface no larger than its callers need.
// It type-checks the non-test files of every package under the module root
// (the bench/ module included, as a caller) with the standard library alone
// and reports, for internal/ only:
//
//	(a) an exported package-level identifier or exported method that no
//	    non-test file outside its package uses: unexport or delete it;
//	(b) an exported field of an exported *Config/*Params/*Policy/*Spec/
//	    *Costs/*Recovery struct that no non-test file outside its package
//	    writes: a setting with one value is a constant;
//	(c) a declaration that no main, init, blank declaration or root-package
//	    type, alias or constant reaches: delete it;
//	(d) a field that non-test code writes but never reads, when it is
//	    unexported or belongs to a rule-(b) struct: delete it;
//	(e) any other exported field that no file of the module reads, test
//	    files included (each package type-checked with its tests, in a
//	    second pass): delete it. Handing a struct to reflect.ValueOf or
//	    reflect.TypeOf reads every field of it;
//	(f) a method of an interface declared in internal/ that no non-test
//	    file calls, neither through the interface nor on a type that
//	    implements it: delete it from the interface and its implementations;
//	(g) a function or method of the root package that no main or init
//	    reaches: the shipped binaries under cmd/, examples/ and bench/ are
//	    what a root export serves, not the root package's own tests. Its
//	    types, aliases and constants are exempt: they name the internal
//	    types and values that reached exports take and return.
//
// Apart from rule (f), a method whose name some interface declares (module
// or standard library) is never a hit, nor is a field with a struct tag. Every hit is either fixed
// or covered by a row of deadSurfaceAllow; a row that covers no hit fails the
// test too, so the list cannot outlive what it excuses.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceEntry is one allowlist row. Exactly one of ID, Struct and File is
// set: ID names one hit ("sim.Env.Dispatched", package path relative to
// internal/); Struct covers every hit on a struct, its fields and methods and
// the struct types its fields reach; File covers every hit declared in a file
// (slash path relative to the module root).
type surfaceEntry struct {
	ID, Struct, File string
	Reason           string
}

var deadSurfaceAllow = []surfaceEntry{
	// Paper features no experiment drives yet.
	{ID: "core.Controller.SetKernelTarget", Reason: "installs the kernel path's block device (PAPER.md §1), driven by the core, stack and dm tests"},
	{File: "internal/storfn/encryptor.go", Reason: "the encryption UIF the uif framework tests drive"},
	{File: "internal/storfn/cachefn.go", Reason: "the cache UIF and the facade's Spec.Cache, whose validation the attach tests exercise"},
	// Instruments tests read across packages.
	{File: "internal/sim/instruments.go", Reason: "event, switch, spawn and live-process counts the lockstep and budget tests read"},
	{File: "internal/sim/blocking.go", Reason: "the process forms the lockstep references block in"},
	{ID: "nvme.CQ.Full", Reason: "the lockstep references' ring-full check"},
	{File: "internal/metrics/equal.go", Reason: "the determinism tests' equality checks"},
	{ID: "core.Controller.DetachUIF", Reason: "the detach half of the promotion fence tests"},
	{File: "internal/integrity/pi.go", Reason: "PI records and counts the integrity and guard tests inspect"},
	{ID: "supervise.StateDegraded", Reason: "the state the facade and storage-function tests wait for"},
	{ID: "uif.Attachment.Wedge", Reason: "the stall the supervision tests inject"},
	{ID: "guestmem.Memory.Allocated", Reason: "bounds the device lockstep test's memory fingerprint"},
	{ID: "harness.bootstormRun.distinctCRC", Reason: "read by TestBootStorm's tenant-isolation check"},
	// Protocol vocabularies: the spec's names, kept whole.
	{File: "internal/ebpf/isa.go", Reason: "the eBPF instruction set"},
	{File: "internal/ebpf/builder.go", Reason: "the ClassifierBuilder DSL the root package re-exports"},
	{File: "internal/core/actions.go", Reason: "the classifier ABI: hooks, context offsets, action bits"},
	{File: "internal/nvme/cmd.go", Reason: "NVMe opcodes and the command/completion wire format"},
	{File: "internal/nvme/status.go", Reason: "NVMe status codes"},
	{File: "internal/scsi/scsi.go", Reason: "SCSI opcodes and status bytes"},
	// Settings with more than one value.
	{Struct: "stack.Params", Reason: "the calibration the sensitivity sweep varies (ROADMAP item 17(b))"},
	{ID: "qos.Config.Window", Reason: "tests shrink it to roll several windows per I/O"},
	{ID: "fio.Config.SharedOffsets", Reason: "BootProfile sets it; every other profile leaves it off"},
}

func TestDeadSurface(t *testing.T) {
	r, err := deadSurface(".", deadSurfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	r.log(t)
	for _, h := range r.unlisted {
		t.Errorf("unlisted hit %s", h)
	}
	for _, e := range r.stale {
		t.Errorf("stale allowlist entry %s: it covers no hit", e)
	}
}

// TestDeadSurfaceFixture runs the checker over testdata/deadsurface, a
// module that plants one hit per rule, an allowlisted hit, a stale entry and
// seven non-hits: a method reached only through an interface, a tagged field,
// a function only a sibling bench module calls, a field only a test file
// reads and one only reflection reads, a root function a fixture main calls
// and a root alias nothing reaches.
func TestDeadSurfaceFixture(t *testing.T) {
	allow := []surfaceEntry{
		{ID: "lib.Spare", Reason: "planted: allowlisted"},
		{ID: "lib.Gone", Reason: "planted: stale"},
	}
	r, err := deadSurface(filepath.Join("testdata", "deadsurface"), allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range r.unlisted {
		got = append(got, h.String())
	}
	for _, h := range r.listed {
		got = append(got, "listed "+h.String())
	}
	for _, e := range r.stale {
		got = append(got, "stale "+e.String())
	}
	want := []string{
		"(a) lib.Helper internal/lib/lib.go:18",
		"(b) lib.Config.Depth internal/lib/lib.go:6",
		"(c) lib.dead internal/lib/lib.go:20 (1 lines)",
		"(d) lib.state.count internal/lib/lib.go:10",
		"(e) lib.Counts.Misses internal/lib/lib.go:37",
		"(f) lib.Labeler.Label internal/lib/lib.go:48",
		"(g) fixture.Probe fixture.go:19",
		"listed (c) lib.Spare internal/lib/lib.go:22 (1 lines)",
		"stale id lib.Gone",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type surfaceHit struct {
	rule  byte   // 'a'..'g'
	key   string // package path relative to internal/, then .Name[.Member]
	file  string // slash path relative to the module root
	line  int
	lines int // declaration length, rule (c)
}

func (h surfaceHit) String() string {
	if h.rule == 'c' {
		return fmt.Sprintf("(c) %s %s:%d (%d lines)", h.key, h.file, h.line, h.lines)
	}
	return fmt.Sprintf("(%c) %s %s:%d", h.rule, h.key, h.file, h.line)
}

func (e surfaceEntry) String() string {
	switch {
	case e.ID != "":
		return "id " + e.ID
	case e.Struct != "":
		return "struct " + e.Struct
	}
	return "file " + e.File
}

type surfaceReport struct {
	unlisted, listed []surfaceHit
	stale            []surfaceEntry
}

// log prints each rule's unlisted and allowlisted counts, then every
// allowlisted hit with its rule (a rule-(c) declaration with its length), and
// the allowlisted rule-(c) lines in all.
func (r *surfaceReport) log(t *testing.T) {
	for _, rule := range []byte("abcdefg") {
		var n, m int
		for _, h := range r.unlisted {
			if h.rule == rule {
				n++
			}
		}
		for _, h := range r.listed {
			if h.rule == rule {
				m++
			}
		}
		t.Logf("rule (%c): %d hits, %d allowlisted", rule, n, m)
	}
	total := 0
	for _, h := range r.listed {
		t.Logf("allowlisted %s", h)
		if h.rule == 'c' {
			total += h.lines
		}
	}
	t.Logf("allowlisted (c) lines: %d", total)
}

// surfacePkg is one type-checked package of the module.
type surfacePkg struct {
	path, dir string // import path; directory, slash path relative to the root
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	loading   bool
}

// surfaceLoader type-checks the module's packages from source, resolving
// module import paths by directory (so a nested module such as bench/ is
// loaded as a caller) and everything else with the source importer. With
// tests, a package's in-package test files are checked with it and its
// external test package is one more package, at its path plus "_test".
type surfaceLoader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*surfacePkg
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *surfaceLoader) check(p *surfacePkg) error {
	if p.pkg != nil {
		return nil
	}
	if p.loading {
		return fmt.Errorf("import cycle through %s", p.path)
	}
	p.loading = true
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var first error
	conf := types.Config{Importer: l, Error: func(err error) {
		if first == nil {
			first = err
		}
	}}
	pkg, _ := conf.Check(p.path, l.fset, p.files, p.info)
	if first != nil {
		return first
	}
	p.pkg = pkg
	return nil
}

func readModulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

func loadSurface(root string, fset *token.FileSet, std types.Importer, tests bool) (*surfaceLoader, error) {
	mod, err := readModulePath(root)
	if err != nil {
		return nil, err
	}
	l := &surfaceLoader{root: root, mod: mod, fset: fset, std: std, pkgs: map[string]*surfacePkg{}}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") && !tests {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		ip := mod
		if dir != "." {
			ip = mod + "/" + dir
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		p := l.pkgs[ip]
		if p == nil {
			p = &surfacePkg{path: ip, dir: dir}
			l.pkgs[ip] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range l.pkgs {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// surfaceDecl is one package-level declaration (or method) for rules (c)
// and (g).
type surfaceDecl struct {
	obj      types.Object // nil for a blank declaration
	pkg      *surfacePkg
	pos, end token.Pos
	refs     []types.Object
	root     bool
	reached  bool
}

// fieldUse counts the non-test writes and reads of one struct field.
type fieldUse struct {
	writes, reads, outsideWrites int
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

var settingSuffixes = []string{"Config", "Params", "Policy", "Spec", "Costs", "Recovery"}

func isSettingStruct(tn *types.TypeName) bool {
	if !tn.Exported() {
		return false
	}
	if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
		return false
	}
	for _, s := range settingSuffixes {
		if strings.HasSuffix(tn.Name(), s) {
			return true
		}
	}
	return false
}

// fieldWrites marks the field selectors p's files assign to (writes) or take
// the address of (addrs), and calls unkeyed on each field an unkeyed
// composite literal writes. Any other use of a field reads it.
func fieldWrites(p *surfacePkg, unkeyed func(*types.Var)) (writes, addrs map[*ast.Ident]bool) {
	writes, addrs = map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	var markWrite func(ast.Expr, map[*ast.Ident]bool)
	markWrite = func(e ast.Expr, set map[*ast.Ident]bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			set[e.Sel] = true
		case *ast.IndexExpr:
			markWrite(e.X, set)
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs, writes)
				}
			case *ast.IncDecStmt:
				markWrite(n.X, writes)
			case *ast.RangeStmt:
				if n.Key != nil {
					markWrite(n.Key, writes)
				}
				if n.Value != nil {
					markWrite(n.Value, writes)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markWrite(n.X, addrs)
				}
			case *ast.CompositeLit:
				tv, ok := p.info.Types[n]
				if !ok {
					break
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
						continue
					}
					// An unkeyed literal writes every field in order.
					unkeyed(st.Field(i).Origin())
				}
			}
			return true
		})
	}
	return writes, addrs
}

// fieldReads returns the declaration positions of the fields some file of
// the module reads, test files included.
func fieldReads(root string, fset *token.FileSet, std types.Importer) (map[token.Position]bool, error) {
	l, err := loadSurface(root, fset, std, true)
	if err != nil {
		return nil, err
	}
	read := map[token.Position]bool{}
	for _, p := range l.pkgs {
		writes, _ := fieldWrites(p, func(*types.Var) {})
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[fset.Position(v.Origin().Pos())] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "ValueOf" && sel.Sel.Name != "TypeOf" {
					return true
				}
				if fn, ok := p.info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg().Path() != "reflect" {
					return true
				}
				t := p.info.TypeOf(call.Args[0])
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						read[fset.Position(st.Field(i).Origin().Pos())] = true
					}
				}
				return true
			})
		}
	}
	return read, nil
}

// deadSurface runs the seven rules over the module rooted at root and sorts
// the hits by the allowlist.
func deadSurface(root string, allow []surfaceEntry) (*surfaceReport, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	l, err := loadSurface(root, fset, std, false)
	if err != nil {
		return nil, err
	}
	read, err := fieldReads(root, fset, std)
	if err != nil {
		return nil, err
	}
	internal := l.mod + "/internal/"
	var paths []string
	for ip := range l.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	// Method names some interface declares, in the module or in any
	// standard-library package it reaches.
	ifaceNames := map[string]bool{}
	seen := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walkStd(q)
		}
	}
	for _, ip := range paths {
		p := l.pkgs[ip]
		walkStd(p.pkg)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	key := func(o types.Object) string {
		p := strings.TrimPrefix(o.Pkg().Path(), internal) + "."
		if fn, ok := o.(*types.Func); ok {
			if tn := recvTypeName(fn); tn != nil {
				return p + tn.Name() + "." + o.Name()
			}
		}
		return p + o.Name()
	}
	position := func(pos token.Pos) (string, int) {
		ps := l.fset.Position(pos)
		rel, _ := filepath.Rel(l.root, ps.Filename)
		return filepath.ToSlash(rel), ps.Line
	}
	isInternal := func(o types.Object) bool {
		return o != nil && o.Pkg() != nil && strings.HasPrefix(o.Pkg().Path(), internal)
	}

	// One pass over every package's non-test files: uses from outside the
	// declaring package, field writes and reads, and the declarations of
	// rule (c).
	usedOutside := map[types.Object]bool{}
	called := map[string][]*types.Func{} // methods non-test code calls, by name
	fields := map[*types.Var]*fieldUse{}
	fieldUseOf := func(v *types.Var) *fieldUse {
		u := fields[v]
		if u == nil {
			u = &fieldUse{}
			fields[v] = u
		}
		return u
	}
	var decls []*surfaceDecl
	declOf := map[types.Object]*surfaceDecl{}
	for _, ip := range paths {
		p := l.pkgs[ip]
		info := p.info
		writes, addrs := fieldWrites(p, func(v *types.Var) {
			u := fieldUseOf(v)
			u.writes++
			if v.Pkg() != p.pkg {
				u.outsideWrites++
			}
		})
		for _, f := range p.files {
			for _, d := range f.Decls {
				decls = append(decls, collectDecls(p, d, declOf)...)
			}
		}
		for id, obj := range info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			obj = origin(obj)
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				called[fn.Name()] = append(called[fn.Name()], fn)
			}
			outside := obj.Pkg() != p.pkg
			if outside {
				// A type that others' calls and variables carry is part of
				// their API even when they never spell its name.
				usedOutside[obj] = true
				markTypes(usedOutside, obj.Type())
			}
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			u := fieldUseOf(v)
			switch {
			case writes[id]:
				u.writes++
			case addrs[id]:
				u.writes++
				u.reads++
			default:
				u.reads++
				continue
			}
			if outside {
				u.outsideWrites++
			}
		}
		for _, sel := range info.Selections {
			if sel.Obj().Pkg() != p.pkg {
				if owner := selectionOwner(sel); owner != nil {
					usedOutside[owner] = true
				}
			}
		}
	}

	// Rules (c) and (g): reachability from the roots.
	var work []*surfaceDecl
	mark := func(d *surfaceDecl) {
		if d != nil && !d.reached {
			d.reached = true
			work = append(work, d)
		}
	}
	methodsOf := map[*types.TypeName][]*surfaceDecl{}
	for _, d := range decls {
		if fn, ok := d.obj.(*types.Func); ok {
			if tn := recvTypeName(fn); tn != nil && ifaceNames[fn.Name()] {
				methodsOf[tn] = append(methodsOf[tn], d)
			}
		}
	}
	// A root-package function or method is reached like any other
	// declaration (rule (g)); its types, aliases and constants are roots.
	inRoot := func(d *surfaceDecl) bool { return d.obj != nil && d.pkg.path == l.mod }
	for _, d := range decls {
		_, fn := d.obj.(*types.Func)
		if d.root || inRoot(d) && !fn {
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range d.refs {
			mark(declOf[r])
		}
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, m := range methodsOf[tn] {
				mark(m)
			}
		}
	}

	var hits []surfaceHit
	dead := map[types.Object]bool{}
	for _, d := range decls {
		if d.reached || d.obj == nil || !isInternal(d.obj) && !inRoot(d) {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Signature().Recv() != nil && ifaceNames[fn.Name()] {
			continue
		}
		file, line := position(d.pos)
		if inRoot(d) {
			hits = append(hits, surfaceHit{rule: 'g', key: key(d.obj), file: file, line: line})
			continue
		}
		dead[d.obj] = true
		_, last := position(d.end)
		hits = append(hits, surfaceHit{rule: 'c', key: key(d.obj), file: file, line: line, lines: last - line + 1})
	}

	// calledVia reports whether some call reaches interface method m: on the
	// interface itself, or on a named type that implements it.
	calledVia := func(it *types.Interface, m *types.Func) bool {
		for _, fn := range called[m.Name()] {
			if fn == m {
				return true
			}
			if tn := recvTypeName(fn); tn != nil {
				if t := tn.Type(); types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
		return false
	}

	// Rules (a), (b), (d), (e), (f) over the internal packages' declarations.
	var settings []*types.TypeName
	for _, ip := range paths {
		if !strings.HasPrefix(ip, internal) {
			continue
		}
		p := l.pkgs[ip]
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !dead[obj] && !usedOutside[obj] {
				file, line := position(obj.Pos())
				hits = append(hits, surfaceHit{rule: 'a', key: key(obj), file: file, line: line})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !dead[tn] {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); !calledVia(it, m) {
						file, line := position(m.Pos())
						hits = append(hits, surfaceHit{rule: 'f', key: key(m), file: file, line: line})
					}
				}
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !ifaceNames[m.Name()] && !dead[m] && !usedOutside[m] {
						file, line := position(m.Pos())
						hits = append(hits, surfaceHit{rule: 'a', key: key(m), file: file, line: line})
					}
				}
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			setting := isSettingStruct(tn)
			if setting {
				settings = append(settings, tn)
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if st.Tag(i) != "" || v.Embedded() {
					continue
				}
				u := fields[v]
				if u == nil {
					u = &fieldUse{}
				}
				file, line := position(v.Pos())
				k := key(tn) + "." + v.Name()
				if setting && v.Exported() && u.outsideWrites == 0 {
					hits = append(hits, surfaceHit{rule: 'b', key: k, file: file, line: line})
				}
				if (setting || !v.Exported()) && u.writes > 0 && u.reads == 0 {
					hits = append(hits, surfaceHit{rule: 'd', key: k, file: file, line: line})
				}
				if !setting && !dead[tn] && v.Exported() && !read[l.fset.Position(v.Pos())] {
					hits = append(hits, surfaceHit{rule: 'e', key: k, file: file, line: line})
				}
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].rule != hits[j].rule {
			return hits[i].rule < hits[j].rule
		}
		return hits[i].key < hits[j].key
	})

	// The allowlist: a struct row covers the struct types its fields reach.
	covers := make([]map[string]bool, len(allow))
	for i, e := range allow {
		if e.Struct == "" {
			continue
		}
		covers[i] = map[string]bool{}
		var walk func(types.Type)
		walk = func(t types.Type) {
			switch t := t.(type) {
			case *types.Pointer:
				walk(t.Elem())
			case *types.Slice:
				walk(t.Elem())
			case *types.Array:
				walk(t.Elem())
			case *types.Named:
				if !isInternal(t.Obj()) || covers[i][key(t.Obj())] {
					return
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					covers[i][key(t.Obj())] = true
					for j := 0; j < st.NumFields(); j++ {
						walk(st.Field(j).Type())
					}
				}
			}
		}
		pkgPath, name, _ := strings.Cut(e.Struct, ".")
		if p := l.pkgs[internal+pkgPath]; p != nil {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				walk(tn.Type())
			}
		}
	}
	r := &surfaceReport{}
	used := make([]bool, len(allow))
	for _, h := range hits {
		listed := false
		for i, e := range allow {
			var ok bool
			switch {
			case e.ID != "":
				ok = h.key == e.ID
			case e.Struct != "":
				for s := range covers[i] {
					if h.key == s || strings.HasPrefix(h.key, s+".") {
						ok = true
					}
				}
			default:
				ok = h.file == e.File
			}
			if ok {
				used[i] = true
				listed = true
			}
		}
		if listed {
			r.listed = append(r.listed, h)
		} else {
			r.unlisted = append(r.unlisted, h)
		}
	}
	for i, e := range allow {
		if !used[i] {
			r.stale = append(r.stale, e)
		}
	}
	return r, nil
}

func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// selectionOwner is the named type that declares a selected field or
// method.
func selectionOwner(sel *types.Selection) types.Object {
	if fn, ok := sel.Obj().(*types.Func); ok {
		if tn := recvTypeName(fn.Origin()); tn != nil {
			return tn
		}
		return nil
	}
	t := sel.Recv()
	idx := sel.Index()
	for _, j := range idx[:len(idx)-1] {
		t = derefStruct(t).Field(j).Type()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

func derefStruct(t types.Type) *types.Struct {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// markTypes records the named types a value of type t carries: its own, and
// those of its elements, parameters and results.
func markTypes(usedOutside map[types.Object]bool, t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		usedOutside[t.Origin().Obj()] = true
	case *types.Pointer:
		markTypes(usedOutside, t.Elem())
	case *types.Slice:
		markTypes(usedOutside, t.Elem())
	case *types.Array:
		markTypes(usedOutside, t.Elem())
	case *types.Chan:
		markTypes(usedOutside, t.Elem())
	case *types.Map:
		markTypes(usedOutside, t.Key())
		markTypes(usedOutside, t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				markTypes(usedOutside, tup.At(i).Type())
			}
		}
	}
}

// collectDecls returns the rule-(c) declarations of one top-level
// declaration: a function or method, or each name of a type, var or const
// spec. Each carries the objects its source refers to.
func collectDecls(p *surfacePkg, d ast.Decl, declOf map[types.Object]*surfaceDecl) []*surfaceDecl {
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := p.info.Uses[id]; o != nil {
					out = append(out, origin(o))
				}
			}
			return true
		})
		return out
	}
	add := func(obj types.Object, pos, end token.Pos, r []types.Object) *surfaceDecl {
		d := &surfaceDecl{obj: obj, pkg: p, pos: pos, end: end, refs: r}
		if obj.Name() == "_" {
			d.obj, d.root = nil, true
		} else {
			declOf[obj] = d
		}
		return d
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		pos := d.Pos()
		if d.Doc != nil {
			pos = d.Doc.Pos()
		}
		sd := add(p.info.Defs[d.Name], pos, d.End(), refs(d))
		if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
			sd.root = true
		}
		return []*surfaceDecl{sd}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		var out []*surfaceDecl
		for _, spec := range d.Specs {
			pos, end := spec.Pos(), spec.End()
			var doc *ast.CommentGroup
			switch s := spec.(type) {
			case *ast.TypeSpec:
				doc = s.Doc
			case *ast.ValueSpec:
				doc = s.Doc
			}
			if len(d.Specs) == 1 {
				pos, end, doc = d.Pos(), d.End(), d.Doc
			}
			if doc != nil {
				pos = doc.Pos()
			}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, add(p.info.Defs[s.Name], pos, end, refs(s)))
			case *ast.ValueSpec:
				r := refs(s)
				for _, name := range s.Names {
					out = append(out, add(p.info.Defs[name], pos, end, r))
				}
			}
		}
		return out
	}
	return nil
}
