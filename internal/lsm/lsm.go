// Package lsm is a log-structured merge-tree key-value store — the
// RocksDB stand-in for the paper's YCSB evaluations. It provides a
// write-ahead log, an in-memory memtable, immutable sorted-string tables
// with block indexes and bloom filters, size-tiered compaction, point gets,
// range scans and read-modify-write — all persisted through the guest
// filesystem (package extfs) onto the virtual disk under test.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"nvmetro/internal/extfs"
	"nvmetro/internal/sim"
)

// Errors.
var (
	ErrNotFound = errors.New("lsm: key not found")
	ErrClosed   = errors.New("lsm: db closed")
)

// Params tunes the engine.
type Params struct {
	MemtableBytes int          // flush threshold
	CompactAt     int          // L0 table count triggering compaction
	BlockBytes    int          // SSTable data block size
	BloomBits     int          // bloom filter bits per key
	OpCost        sim.Duration // per-operation CPU (hashing, comparisons)
	WALMaxBytes   uint64
	TableMaxBytes uint64
}

// DefaultParams returns a small-footprint configuration whose behaviour
// (memtable absorption, flush bursts, compaction I/O) mirrors RocksDB's.
func DefaultParams() Params {
	return Params{
		MemtableBytes: 512 << 10,
		CompactAt:     6,
		BlockBytes:    4096,
		BloomBits:     10,
		OpCost:        2 * sim.Microsecond,
		WALMaxBytes:   8 << 20,
		TableMaxBytes: 64 << 20,
	}
}

// DB is one database instance.
type DB struct {
	fs     *extfs.FS
	params Params
	vcpu   threadLike

	mem     map[string][]byte
	memSize int
	wal     *extfs.File
	walOff  uint64
	walGen  int

	tables []*SSTable // newest last
	nextID int
	closed bool

	// Stats
	Puts, Gets, Scans, Flushes, Compactions uint64
	BloomNegatives                          uint64
}

// threadLike decouples lsm from sim.Thread for testing.
type threadLike interface {
	Exec(p *sim.Proc, d sim.Duration)
}

// Open creates a DB over a mounted filesystem.
func Open(p *sim.Proc, fs *extfs.FS, vcpu threadLike, params Params) (*DB, error) {
	db := &DB{fs: fs, params: params, vcpu: vcpu, mem: make(map[string][]byte)}
	if err := db.rotateWAL(p); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) rotateWAL(p *sim.Proc) error {
	db.walGen++
	name := fmt.Sprintf("wal-%06d", db.walGen)
	f, err := db.fs.Create(p, name, db.params.WALMaxBytes, true)
	if err != nil {
		return err
	}
	if db.wal != nil {
		db.fs.Delete(p, db.wal.Name())
	}
	db.wal = f
	db.walOff = 0
	return nil
}

// Put inserts or updates a key.
func (db *DB) Put(p *sim.Proc, key string, value []byte) error {
	if db.closed {
		return ErrClosed
	}
	db.Puts++
	db.vcpu.Exec(p, db.params.OpCost)

	// WAL record: klen u16 | vlen u32 | key | value.
	rec := make([]byte, 6+len(key)+len(value))
	binary.LittleEndian.PutUint16(rec[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(rec[2:6], uint32(len(value)))
	copy(rec[6:], key)
	copy(rec[6+len(key):], value)
	if db.walOff+uint64(len(rec)) > db.params.WALMaxBytes {
		if err := db.rotateWAL(p); err != nil {
			return err
		}
	}
	if err := db.wal.WriteAt(p, db.walOff, rec); err != nil {
		return err
	}
	db.walOff += uint64(len(rec))

	v := make([]byte, len(value))
	copy(v, value)
	if old, ok := db.mem[key]; ok {
		db.memSize -= len(key) + len(old)
	}
	db.mem[key] = v
	db.memSize += len(key) + len(v)
	if db.memSize >= db.params.MemtableBytes {
		return db.flush(p)
	}
	return nil
}

// Get returns the value for key.
func (db *DB) Get(p *sim.Proc, key string) ([]byte, error) {
	if db.closed {
		return nil, ErrClosed
	}
	db.Gets++
	db.vcpu.Exec(p, db.params.OpCost)
	if v, ok := db.mem[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	// Newest table first.
	for i := len(db.tables) - 1; i >= 0; i-- {
		t := db.tables[i]
		if !t.bloom.mayContain(key) {
			db.BloomNegatives++
			continue
		}
		v, err := t.get(p, key)
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
	}
	return nil, ErrNotFound
}

// Scan returns up to limit key/value pairs with key >= start, in order —
// the YCSB workload E operation.
func (db *DB) Scan(p *sim.Proc, start string, limit int) ([]KV, error) {
	if db.closed {
		return nil, ErrClosed
	}
	db.Scans++
	db.vcpu.Exec(p, db.params.OpCost*4)
	// Merge memtable + all tables (newest shadows oldest).
	seen := make(map[string]bool)
	var out []KV
	add := func(k string, v []byte) {
		if !seen[k] {
			seen[k] = true
			out = append(out, KV{Key: k, Value: v})
		}
	}
	for k, v := range db.mem {
		if k >= start {
			add(k, v)
		}
	}
	for i := len(db.tables) - 1; i >= 0; i-- {
		kvs, err := db.tables[i].scan(p, start, limit+len(out))
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			add(kv.Key, kv.Value)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// KV is one key/value pair.
type KV struct {
	Key   string
	Value []byte
}

// flush writes the memtable as a new SSTable.
func (db *DB) flush(p *sim.Proc) error {
	if len(db.mem) == 0 {
		return nil
	}
	db.Flushes++
	kvs := make([]KV, 0, len(db.mem))
	for k, v := range db.mem {
		kvs = append(kvs, KV{Key: k, Value: v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	db.nextID++
	t, err := writeTable(p, db.fs, fmt.Sprintf("sst-%06d", db.nextID), kvs, db.params)
	if err != nil {
		return err
	}
	db.tables = append(db.tables, t)
	db.mem = make(map[string][]byte)
	db.memSize = 0
	if err := db.rotateWAL(p); err != nil {
		return err
	}
	if len(db.tables) >= db.params.CompactAt {
		return db.compact(p)
	}
	return nil
}

// compact merges every table into one (size-tiered, single level).
func (db *DB) compact(p *sim.Proc) error {
	db.Compactions++
	merged := make(map[string][]byte)
	for _, t := range db.tables { // oldest first; newer overwrite
		kvs, err := t.scan(p, "", 1<<31)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			merged[kv.Key] = kv.Value
		}
	}
	kvs := make([]KV, 0, len(merged))
	for k, v := range merged {
		kvs = append(kvs, KV{Key: k, Value: v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	db.nextID++
	t, err := writeTable(p, db.fs, fmt.Sprintf("sst-%06d", db.nextID), kvs, db.params)
	if err != nil {
		return err
	}
	for _, old := range db.tables {
		db.fs.Delete(p, old.name)
	}
	db.tables = []*SSTable{t}
	return nil
}

// Flush forces the memtable to disk (used by loaders).
func (db *DB) Flush(p *sim.Proc) error { return db.flush(p) }

// Close flushes and marks the DB unusable.
func (db *DB) Close(p *sim.Proc) error {
	if err := db.flush(p); err != nil {
		return err
	}
	db.closed = true
	return db.fs.SyncAll(p)
}
