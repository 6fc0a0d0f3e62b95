package device

import (
	"bytes"
	"encoding/binary"

	"nvmetro/internal/bufpool"
)

// keyWords is how many 8-byte words a page's key samples, spread evenly
// from its first word to its last. Hashing a whole 4 KiB page costs more
// than ten copies of it; sampled words cost a few loads, and every match is
// confirmed byte for byte anyway.
const keyWords = 16

// maxProbe bounds the entries indexed under one key, and so the unequal
// candidates one write compares. The guest chooses page contents and can
// make sampled keys collide at will; content that finds its key's chain
// full stays held, but unindexed and unshared.
const maxProbe = 4

// Page is one interned page content and the number of holders it has. An
// entry with more than one holder is immutable: Pages.Write gives a writer
// an entry of its own instead of changing a shared one.
type Page struct {
	data    []byte
	key     uint64
	refs    int
	next    *Page // next entry indexed under the same key
	indexed bool
}

// Bytes returns the page's content. The caller may read it for as long as
// it holds its reference and must not change it.
func (p *Page) Bytes() []byte { return p.data }

// Pages holds page contents interned by content: however many holders
// write the same bytes, the set keeps them once, and an entry is freed when
// its last holder lets go. It is not safe for concurrent use.
type Pages struct {
	// Live counts the entries held: one per distinct content, apart from
	// content a full chain left unindexed. Only the set changes it.
	Live int

	size  int
	offs  [keyWords]int    // where the key's words sit, word-aligned
	index map[uint64]*Page // key → chain of at most maxProbe entries
}

// NewPages creates an empty set of pages of size bytes, a multiple of 8.
func NewPages(size int) *Pages {
	ps := &Pages{size: size, index: make(map[uint64]*Page)}
	for j := range ps.offs {
		ps.offs[j] = j * (size - 8) / (keyWords - 1) &^ 7
	}
	return ps
}

// Write returns the entry for a page whose content is base with the k
// bytes at off replaced by data's (zeros when data is nil), adding one
// reference, and lets go of old, the entry it replaces (nil for none).
// When old is non-nil its bytes are the base; otherwise base is the
// content under the page, nil for zeros. off and k are multiples of 8, as
// every block size is. Content some entry already holds joins that entry
// and copies nothing; an entry only old's holder holds is patched in place.
func (ps *Pages) Write(old *Page, base []byte, off, k int, data []byte) *Page {
	if (off|k)&7 != 0 {
		panic("device: page write not word-aligned")
	}
	if old != nil {
		if same(old.data[off:off+k], data) {
			return old // a rewrite of the bytes it holds
		}
		base = old.data
		if old.refs == 1 {
			ps.unindex(old)
		}
	}
	key := ps.keyOf(base, off, k, data)
	hit, chain := ps.find(key, base, off, k, data)
	if hit != nil {
		hit.refs++
		ps.Release(old)
		return hit
	}
	pg := old
	if old == nil || old.refs > 1 {
		ps.Live++
		pg = &Page{data: make([]byte, ps.size), refs: 1}
		if k < ps.size {
			copy(pg.data, base) // a nil base leaves the zeros make gave
		}
		if old != nil {
			old.refs--
		}
	}
	if data == nil {
		clear(pg.data[off : off+k])
	} else {
		copy(pg.data[off:], data)
	}
	pg.key = key
	if chain < maxProbe {
		pg.next, ps.index[key] = ps.index[key], pg
		pg.indexed = true
	}
	return pg
}

// Release drops one reference to pg (nil is skipped), freeing the entry at
// zero: under bufpool.Poison its bytes are overwritten first, so a reader
// the books missed sees garbage.
func (ps *Pages) Release(pg *Page) {
	if pg == nil {
		return
	}
	if pg.refs--; pg.refs > 0 {
		return
	}
	ps.unindex(pg)
	ps.Live--
	if bufpool.Poison {
		for i := range pg.data {
			pg.data[i] = 0xDB
		}
	}
}

// find returns the indexed entry holding the content Write describes, or
// nil, and how many entries it compared.
func (ps *Pages) find(key uint64, base []byte, off, k int, data []byte) (*Page, int) {
	n := 0
	for pg := ps.index[key]; pg != nil; pg = pg.next {
		n++
		if same(pg.data[off:off+k], data) && same(pg.data[:off], cut(base, 0, off)) &&
			same(pg.data[off+k:], cut(base, off+k, ps.size)) {
			return pg, n
		}
	}
	return nil, n
}

// unindex takes pg out of its key's chain, if it is in one.
func (ps *Pages) unindex(pg *Page) {
	if !pg.indexed {
		return
	}
	pg.indexed = false
	at := ps.index[pg.key]
	if at == pg {
		if pg.next == nil {
			delete(ps.index, pg.key)
		} else {
			ps.index[pg.key] = pg.next
		}
	} else {
		for at.next != pg {
			at = at.next
		}
		at.next = pg.next
	}
	pg.next = nil
}

// keyOf samples keyWords words of the content Write describes. A word
// lies wholly inside the replaced range or wholly outside it.
func (ps *Pages) keyOf(base []byte, off, k int, data []byte) uint64 {
	h := uint64(0)
	for _, o := range ps.offs {
		src := base
		if o >= off && o < off+k {
			src, o = data, o-off
		}
		var w uint64
		if src != nil {
			w = binary.LittleEndian.Uint64(src[o:])
		}
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// same reports whether b holds src's bytes, or zeros when src is nil.
func same(b, src []byte) bool {
	if src == nil {
		return isZero(b)
	}
	return bytes.Equal(b, src)
}

// cut returns b[i:j], or nil for a nil b.
func cut(b []byte, i, j int) []byte {
	if b == nil {
		return nil
	}
	return b[i:j]
}
