package ebpf

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

// helper is one kernel helper: the name the assembler knows it by, its
// verifier signature and the compiled op a call to it becomes.
type helper struct {
	name string
	args []argType
	ret  retType
	code copCode
}

// helpers is the kernel's helper set, by id. It is fixed: in the kernel,
// adding a helper means recompiling the verifier. The verifier, the
// assembler, the compiler and the interpreter all read this table; an id
// outside it is refused by Compile on any path, reachable or not.
var helpers = map[int32]helper{
	HelperMapLookup:  {"map_lookup_elem", []argType{argMapPtr, argPtrToMapKey}, retMapValueOrNull, cCallLookup},
	helperMapUpdate:  {"map_update_elem", []argType{argMapPtr, argPtrToMapKey, argPtrToMapValue, argScalar}, retScalar, cCallUpdate},
	helperMapDelete:  {"map_delete_elem", []argType{argMapPtr, argPtrToMapKey}, retScalar, cCallDelete},
	helperGetPrandom: {"get_prandom_u32", nil, retScalar, cCallPrandom},
}

// helperNamed returns the id of the helper called name, for the assembler.
func helperNamed(name string) (int32, bool) {
	for id, h := range helpers {
		if h.name == name {
			return id, true
		}
	}
	return 0, false
}

// pure reports whether a call to helper id has no effect outside the
// invocation: map_lookup_elem returns a value pointer or null and mutates
// nothing, and get_prandom_u32 derives from the invocation count without
// advancing state.
func pure(id int32) bool {
	c := helpers[id].code
	return c == cCallLookup || c == cCallPrandom
}

// The helpers' effects, shared by both tiers. map_lookup_elem is Map.Lookup
// itself (the compiled tier inlines it for array maps).

// mapUpdate is map_update_elem: 0, or -1 when the map refuses the entry.
func mapUpdate(m Map, key, value []byte) uint64 {
	if m.Update(key, value) != nil {
		return ^uint64(0)
	}
	return 0
}

// mapDelete is map_delete_elem: 0, or -1 when key was absent.
func mapDelete(m Map, key []byte) uint64 {
	if !m.Delete(key) {
		return ^uint64(0)
	}
	return 0
}

// prandomU32 is get_prandom_u32: xorshift seeded from the invocation count,
// deterministic across simulation runs, unlike the kernel's true PRNG.
func prandomU32(invocations uint64) uint64 {
	x := invocations*2654435761 + 12345
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return uint64(uint32(x))
}
