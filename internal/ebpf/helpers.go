package ebpf

import (
	"fmt"
)

// Helper argument types, used by the verifier to type-check calls.
type argType uint8

// Argument kinds.
const (
	_ argType = iota // the zero value: no argument
	argMapPtr
	argPtrToMapKey   // stack pointer to an initialized map key
	argPtrToMapValue // stack pointer to an initialized map value
	argScalar
)

// retType describes a helper's return value for the verifier.
type retType uint8

// Return kinds.
const (
	retScalar retType = iota
	retMapValueOrNull
)

// helperImpl couples a runtime implementation with its verifier signature.
// builtin marks the standard helpers, which are known not to write to the
// VM stack (custom helpers force a conservative full-stack clear on the
// next invocation — see VM.stackLow).
type helperImpl struct {
	name    string
	args    []argType
	ret     retType
	fn      func(vm *VM, r []val) (val, error)
	builtin bool
}

// HelperRegistry maps helper IDs to implementations. The paper notes that
// extending the kernel helper set requires recompiling the verifier; here
// the registry makes the analogous extension point explicit.
type HelperRegistry struct {
	impls map[int32]*helperImpl
}

func (hr *HelperRegistry) get(id int32) *helperImpl { return hr.impls[id] }

// signature returns the verifier view of helper id.
func (hr *HelperRegistry) signature(id int32) (args []argType, ret retType, name string, ok bool) {
	h := hr.impls[id]
	if h == nil {
		return nil, 0, "", false
	}
	return h.args, h.ret, h.name, true
}

// Register installs a custom helper.
func (hr *HelperRegistry) define(id int32, name string, args []argType, ret retType, fn func(vm *VM, r []val) (val, error)) {
	if hr.impls == nil {
		hr.impls = make(map[int32]*helperImpl)
	}
	hr.impls[id] = &helperImpl{name: name, args: args, ret: ret, fn: fn}
}

// register installs a standard helper under its standard name (exempt from
// the conservative stack-dirtying custom helpers get).
func (hr *HelperRegistry) register(id int32, args []argType, ret retType, fn func(vm *VM, r []val) (val, error)) {
	hr.define(id, standardHelpers[id].name, args, ret, fn)
	hr.impls[id].builtin = true
}

// standardHelpers are the helpers the compiled tier runs directly: the name
// each id is registered under and the op a call to it compiles to.
var standardHelpers = map[int32]struct {
	name string
	code copCode
}{
	HelperMapLookup:  {"map_lookup_elem", cCallLookup},
	helperMapUpdate:  {"map_update_elem", cCallUpdate},
	helperMapDelete:  {"map_delete_elem", cCallDelete},
	helperGetPrandom: {"get_prandom_u32", cCallPrandom},
}

// standard reports whether id is bound to the standard helper of that id, by
// id and registered name: a registry that rebinds an id to a helper of its
// own does not count.
func (hr *HelperRegistry) standard(id int32) bool {
	std, ok := standardHelpers[id]
	return ok && hr.impls[id] != nil && hr.impls[id].name == std.name
}

// pure reports whether a call to helper id has no effect outside the
// invocation: map_lookup_elem returns a value pointer or null and mutates
// nothing, and get_prandom_u32 derives from the invocation count without
// advancing state.
func (hr *HelperRegistry) pure(id int32) bool {
	return (id == HelperMapLookup || id == helperGetPrandom) && hr.standard(id)
}

func stackBytes(v val, n int) ([]byte, error) {
	if v.kind != kPtr {
		return nil, fmt.Errorf("%w: helper expects pointer argument", errFault)
	}
	start := int64(v.n)
	if !inWindow(start, n, len(v.mem.data)) {
		return nil, fmt.Errorf("%w: helper argument out of bounds", errFault)
	}
	return v.mem.data[start : start+int64(n)], nil
}

// defaultHelpers returns the standard helper set.
func defaultHelpers() *HelperRegistry {
	hr := &HelperRegistry{}
	hr.register(HelperMapLookup, []argType{argMapPtr, argPtrToMapKey}, retMapValueOrNull,
		func(vm *VM, r []val) (val, error) {
			m := r[R1].m
			key, err := stackBytes(r[R2], m.KeySize())
			if err != nil {
				return val{}, err
			}
			v := m.Lookup(key)
			if v == nil {
				return scalar(0), nil
			}
			return val{kind: kPtr, mem: &memRegion{data: v, writable: true}}, nil
		})
	hr.register(helperMapUpdate, []argType{argMapPtr, argPtrToMapKey, argPtrToMapValue, argScalar}, retScalar,
		func(vm *VM, r []val) (val, error) {
			m := r[R1].m
			key, err := stackBytes(r[R2], m.KeySize())
			if err != nil {
				return val{}, err
			}
			value, err := stackBytes(r[R3], m.ValueSize())
			if err != nil {
				return val{}, err
			}
			if err := m.Update(key, value); err != nil {
				return scalar(^uint64(0)), nil // -1
			}
			return scalar(0), nil
		})
	hr.register(helperMapDelete, []argType{argMapPtr, argPtrToMapKey}, retScalar,
		func(vm *VM, r []val) (val, error) {
			m := r[R1].m
			key, err := stackBytes(r[R2], m.KeySize())
			if err != nil {
				return val{}, err
			}
			if !m.Delete(key) {
				return scalar(^uint64(0)), nil
			}
			return scalar(0), nil
		})
	hr.register(helperGetPrandom, nil, retScalar,
		func(vm *VM, r []val) (val, error) {
			// xorshift seeded from invocation count: deterministic across
			// simulation runs, unlike the kernel's true PRNG. Shared with
			// the compiled tier (crun.go) so both tiers agree.
			return scalar(prandomU32(vm.Invocations)), nil
		})
	return hr
}
