package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"nvmetro/internal/extfs"
	"nvmetro/internal/sim"
)

// ssTable file layout:
//
//	[data block 0][data block 1]...[footer]
//
// Each data block holds records `klen u16 | vlen u32 | key | value` packed
// up to blockBytes. The block index (first key + offset + length per block)
// and the bloom filter stay in memory after a flush, as they would in
// RocksDB's table cache; the footer persists them for completeness.
type ssTable struct {
	file *extfs.File
	name string

	index []indexEntry
	bloom bloomFilter
}

type indexEntry struct {
	firstKey string
	off      uint64
	length   uint32
}

// writeTable serializes sorted kvs into a new table file.
func writeTable(p *sim.Proc, fs *extfs.FS, name string, kvs []KV) (*ssTable, error) {
	t := &ssTable{name: name}
	t.bloom = newBloom(len(kvs), bloomBits)

	var blocks [][]byte
	var cur []byte
	var firstKey string
	flushBlock := func() {
		if len(cur) == 0 {
			return
		}
		t.index = append(t.index, indexEntry{firstKey: firstKey, length: uint32(len(cur))})
		blocks = append(blocks, cur)
		cur = nil
	}
	for _, kv := range kvs {
		rec := make([]byte, 6+len(kv.Key)+len(kv.Value))
		binary.LittleEndian.PutUint16(rec[0:2], uint16(len(kv.Key)))
		binary.LittleEndian.PutUint32(rec[2:6], uint32(len(kv.Value)))
		copy(rec[6:], kv.Key)
		copy(rec[6+len(kv.Key):], kv.Value)
		if len(cur) == 0 {
			firstKey = kv.Key
		}
		cur = append(cur, rec...)
		t.bloom.add(kv.Key)
		if len(cur) >= blockBytes {
			flushBlock()
		}
	}
	flushBlock()

	total := uint64(0)
	for _, b := range blocks {
		total += uint64(len(b))
	}
	f, err := fs.Create(p, name, total+uint64(len(t.bloom.bits))+4096, false)
	if err != nil {
		return nil, err
	}
	t.file = f
	off := uint64(0)
	// Write blocks in large sequential chunks (compaction-style I/O).
	var pending []byte
	for i, b := range blocks {
		t.index[i].off = off + uint64(len(pending))
		pending = append(pending, b...)
		if len(pending) >= 256<<10 {
			if err := f.WriteAt(p, off, pending); err != nil {
				return nil, err
			}
			off += uint64(len(pending))
			pending = nil
		}
	}
	if len(pending) > 0 {
		if err := f.WriteAt(p, off, pending); err != nil {
			return nil, err
		}
		off += uint64(len(pending))
	}
	// Footer: persist the bloom filter after the data.
	if err := f.WriteAt(p, off, t.bloom.bits); err != nil {
		return nil, err
	}
	if err := f.Sync(p); err != nil {
		return nil, err
	}
	return t, nil
}

// findBlock locates the index entry that may contain key.
func (t *ssTable) findBlock(key string) int {
	i := sort.Search(len(t.index), func(i int) bool { return t.index[i].firstKey > key })
	return i - 1
}

// get reads one key from the table.
func (t *ssTable) get(p *sim.Proc, key string) ([]byte, error) {
	bi := t.findBlock(key)
	if bi < 0 {
		return nil, ErrNotFound
	}
	e := t.index[bi]
	buf := make([]byte, e.length)
	if err := t.file.ReadAt(p, e.off, buf); err != nil {
		return nil, err
	}
	for off := 0; off+6 <= len(buf); {
		klen := int(binary.LittleEndian.Uint16(buf[off : off+2]))
		vlen := int(binary.LittleEndian.Uint32(buf[off+2 : off+6]))
		if off+6+klen+vlen > len(buf) {
			return nil, fmt.Errorf("lsm: corrupt block in %s", t.name)
		}
		k := string(buf[off+6 : off+6+klen])
		if k == key {
			v := make([]byte, vlen)
			copy(v, buf[off+6+klen:off+6+klen+vlen])
			return v, nil
		}
		if k > key {
			break
		}
		off += 6 + klen + vlen
	}
	return nil, ErrNotFound
}

// scan returns up to limit pairs with key >= start.
func (t *ssTable) scan(p *sim.Proc, start string, limit int) ([]KV, error) {
	bi := t.findBlock(start)
	if bi < 0 {
		bi = 0
	}
	var out []KV
	for ; bi < len(t.index) && len(out) < limit; bi++ {
		e := t.index[bi]
		buf := make([]byte, e.length)
		if err := t.file.ReadAt(p, e.off, buf); err != nil {
			return nil, err
		}
		for off := 0; off+6 <= len(buf) && len(out) < limit; {
			klen := int(binary.LittleEndian.Uint16(buf[off : off+2]))
			vlen := int(binary.LittleEndian.Uint32(buf[off+2 : off+6]))
			if off+6+klen+vlen > len(buf) {
				return nil, fmt.Errorf("lsm: corrupt block in %s", t.name)
			}
			k := string(buf[off+6 : off+6+klen])
			if k >= start {
				v := make([]byte, vlen)
				copy(v, buf[off+6+klen:off+6+klen+vlen])
				out = append(out, KV{Key: k, Value: v})
			}
			off += 6 + klen + vlen
		}
	}
	return out, nil
}

// bloomFilter is a standard k-hash bloom filter.
type bloomFilter struct {
	bits []byte
	k    int
}

func newBloom(n, bitsPerKey int) bloomFilter {
	if n < 1 {
		n = 1
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	k := bitsPerKey * 69 / 100 // ln2 * bitsPerKey
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return bloomFilter{bits: make([]byte, (nbits+7)/8), k: k}
}

func bloomHash(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	return h1, h2
}

func (b bloomFilter) add(key string) {
	h1, h2 := bloomHash(key)
	n := uint64(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b bloomFilter) mayContain(key string) bool {
	h1, h2 := bloomHash(key)
	n := uint64(len(b.bits) * 8)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
