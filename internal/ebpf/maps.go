package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Map is the classifier-visible key/value storage, mirroring kernel BPF
// maps. Classifiers use maps for configuration (partition offsets, policy
// tables) and cross-invocation state; the control plane updates them live,
// which is how storage functions are reconfigured without VM reboots.
type Map interface {
	// Lookup returns a mutable view of the value for key, or nil.
	Lookup(key []byte) []byte
	// Update inserts or replaces the value for key.
	Update(key, value []byte) error
	// Delete removes key, reporting whether it existed.
	Delete(key []byte) bool
	// KeySize and ValueSize in bytes.
	KeySize() int
	ValueSize() int
}

// ArrayMap is a fixed-size array of values indexed by a uint32 key.
type ArrayMap struct {
	valueSize  int
	maxEntries int
	data       []byte
}

// NewArrayMap creates an array map.
func NewArrayMap(valueSize, maxEntries int) *ArrayMap {
	if valueSize <= 0 || maxEntries <= 0 {
		panic("ebpf: bad array map geometry")
	}
	return &ArrayMap{valueSize: valueSize, maxEntries: maxEntries, data: make([]byte, valueSize*maxEntries)}
}

// KeySize implements Map (uint32 index).
func (m *ArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *ArrayMap) ValueSize() int { return m.valueSize }

func (m *ArrayMap) index(key []byte) (int, bool) {
	if len(key) != 4 {
		return 0, false
	}
	i := int(binary.LittleEndian.Uint32(key))
	return i, i < m.maxEntries
}

// Lookup implements Map. Array map lookups never fail for in-range keys.
func (m *ArrayMap) Lookup(key []byte) []byte {
	i, ok := m.index(key)
	if !ok {
		return nil
	}
	return m.data[i*m.valueSize : (i+1)*m.valueSize]
}

// Update implements Map.
func (m *ArrayMap) Update(key, value []byte) error {
	i, ok := m.index(key)
	if !ok {
		return fmt.Errorf("ebpf: array index out of range")
	}
	if len(value) != m.valueSize {
		return fmt.Errorf("ebpf: value size %d != %d", len(value), m.valueSize)
	}
	copy(m.data[i*m.valueSize:], value)
	return nil
}

// Delete implements Map; array entries are zeroed rather than removed.
func (m *ArrayMap) Delete(key []byte) bool {
	i, ok := m.index(key)
	if !ok {
		return false
	}
	clear(m.data[i*m.valueSize : (i+1)*m.valueSize])
	return true
}

// SetU64 stores a little-endian uint64 at offset off of entry idx
// (control-plane convenience).
func (m *ArrayMap) SetU64(idx int, off int, v uint64) {
	binary.LittleEndian.PutUint64(m.data[idx*m.valueSize+off:], v)
}

// HashMap is a bounded hash map with fixed-size keys and values.
type HashMap struct {
	keySize    int
	valueSize  int
	maxEntries int
	data       map[string][]byte
}

// NewHashMap creates a hash map.
func NewHashMap(keySize, valueSize, maxEntries int) *HashMap {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		panic("ebpf: bad hash map geometry")
	}
	return &HashMap{keySize: keySize, valueSize: valueSize, maxEntries: maxEntries, data: make(map[string][]byte)}
}

// KeySize implements Map.
func (m *HashMap) KeySize() int { return m.keySize }

// ValueSize implements Map.
func (m *HashMap) ValueSize() int { return m.valueSize }

// Lookup implements Map.
func (m *HashMap) Lookup(key []byte) []byte {
	if len(key) != m.keySize {
		return nil
	}
	return m.data[string(key)]
}

// Update implements Map. Updating an existing key reuses its value storage
// (copy-in-place) so steady-state updates allocate nothing.
func (m *HashMap) Update(key, value []byte) error {
	if len(key) != m.keySize || len(value) != m.valueSize {
		return fmt.Errorf("ebpf: bad key/value size")
	}
	if old, ok := m.data[string(key)]; ok {
		copy(old, value)
		return nil
	}
	if len(m.data) >= m.maxEntries {
		return fmt.Errorf("ebpf: map full (%d entries)", m.maxEntries)
	}
	v := make([]byte, m.valueSize)
	copy(v, value)
	m.data[string(key)] = v
	return nil
}

// Delete implements Map.
func (m *HashMap) Delete(key []byte) bool {
	if _, ok := m.data[string(key)]; !ok {
		return false
	}
	delete(m.data, string(key))
	return true
}

// Len returns the number of entries.
func (m *HashMap) Len() int { return len(m.data) }
