package ebpf

import (
	"fmt"
)

// Helper IDs (matching the kernel's numbering where applicable; the NVMetro
// extensions live above the kernel range).
const (
	HelperMapLookup   = 1
	HelperMapUpdate   = 2
	HelperMapDelete   = 3
	HelperGetPrandom  = 7
	HelperQoSSetClass = 64
)

// Helper argument types, used by the verifier to type-check calls.
type ArgType uint8

// Argument kinds.
const (
	ArgNone ArgType = iota
	ArgMapPtr
	ArgPtrToMapKey   // stack pointer to an initialized map key
	ArgPtrToMapValue // stack pointer to an initialized map value
	ArgScalar
)

// RetType describes a helper's return value for the verifier.
type RetType uint8

// Return kinds.
const (
	RetScalar RetType = iota
	RetMapValueOrNull
)

// helperImpl couples a runtime implementation with its verifier signature.
// builtin marks the standard helpers, which are known not to write to the
// VM stack (custom helpers force a conservative full-stack clear on the
// next invocation — see VM.stackLow).
type helperImpl struct {
	name    string
	args    []ArgType
	ret     RetType
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
func (hr *HelperRegistry) signature(id int32) (args []ArgType, ret RetType, name string, ok bool) {
	h := hr.impls[id]
	if h == nil {
		return nil, 0, "", false
	}
	return h.args, h.ret, h.name, true
}

// Register installs a custom helper.
func (hr *HelperRegistry) Register(id int32, name string, args []ArgType, ret RetType, fn func(vm *VM, r []val) (val, error)) {
	if hr.impls == nil {
		hr.impls = make(map[int32]*helperImpl)
	}
	hr.impls[id] = &helperImpl{name: name, args: args, ret: ret, fn: fn}
}

// register installs a standard helper under its standard name (exempt from
// the conservative stack-dirtying custom helpers get).
func (hr *HelperRegistry) register(id int32, args []ArgType, ret RetType, fn func(vm *VM, r []val) (val, error)) {
	hr.Register(id, standardHelpers[id].name, args, ret, fn)
	hr.impls[id].builtin = true
}

// standardHelpers are the helpers the compiled tier runs directly: the name
// each id is registered under and the op a call to it compiles to.
var standardHelpers = map[int32]struct {
	name string
	code copCode
}{
	HelperMapLookup:   {"map_lookup_elem", cCallLookup},
	HelperMapUpdate:   {"map_update_elem", cCallUpdate},
	HelperMapDelete:   {"map_delete_elem", cCallDelete},
	HelperGetPrandom:  {"get_prandom_u32", cCallPrandom},
	HelperQoSSetClass: {"qos_set_class", cCallQoS},
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
	return (id == HelperMapLookup || id == HelperGetPrandom) && hr.standard(id)
}

func stackBytes(v val, n int) ([]byte, error) {
	if v.kind != kPtr {
		return nil, fmt.Errorf("%w: helper expects pointer argument", ErrFault)
	}
	start := int64(v.n)
	if !inWindow(start, n, len(v.mem.data)) {
		return nil, fmt.Errorf("%w: helper argument out of bounds", ErrFault)
	}
	return v.mem.data[start : start+int64(n)], nil
}

// DefaultHelpers returns the standard helper set.
func DefaultHelpers() *HelperRegistry {
	hr := &HelperRegistry{}
	hr.register(HelperMapLookup, []ArgType{ArgMapPtr, ArgPtrToMapKey}, RetMapValueOrNull,
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
	hr.register(HelperMapUpdate, []ArgType{ArgMapPtr, ArgPtrToMapKey, ArgPtrToMapValue, ArgScalar}, RetScalar,
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
	hr.register(HelperMapDelete, []ArgType{ArgMapPtr, ArgPtrToMapKey}, RetScalar,
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
	hr.register(HelperGetPrandom, nil, RetScalar,
		func(vm *VM, r []val) (val, error) {
			// xorshift seeded from invocation count: deterministic across
			// simulation runs, unlike the kernel's true PRNG. Shared with
			// the compiled tier (crun.go) so both tiers agree.
			return scalar(prandomU32(vm.Invocations)), nil
		})
	hr.register(HelperQoSSetClass, []ArgType{ArgScalar}, RetScalar,
		func(vm *VM, r []val) (val, error) {
			// Tags the in-flight command's QoS scheduling class; the router
			// reads it back after the classifier returns. Out-of-range
			// classes are rejected (-1) and leave the tag untouched, so a
			// buggy program degrades to class-default scheduling.
			c := r[R1].n
			if c >= qosNumClasses {
				return scalar(^uint64(0)), nil
			}
			vm.QoSClass = uint8(c)
			return scalar(0), nil
		})
	return hr
}

// qosNumClasses mirrors qos.NumClasses, kept local so the generic VM layer
// stays decoupled from the scheduler; the core wiring tests assert the two
// stay equal.
const qosNumClasses = 4
