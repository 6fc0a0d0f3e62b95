package device

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"nvmetro/internal/bufpool"
)

// auditPages checks the books of s's page set against its page table:
// every entry's references are the slots that hold it, no two entries share
// a buffer, and every indexed entry is held and sits under its own key in a
// chain of at most maxProbe. An entry held at the last audit (prev) and held
// no longer was freed: it must be out of the index, share no buffer with a
// held one and, under bufpool.Poison, have lost its bytes. It returns the
// entries held, for the next audit.
func auditPages(t *testing.T, s *MemStore, prev map[*Page]int) map[*Page]int {
	t.Helper()
	held := make(map[*Page]int)
	resident := 0
	for _, l := range s.dir {
		n := 0
		for _, p := range l.pages {
			if p != nil {
				held[p]++
				n++
			}
		}
		if n == 0 || n != l.n {
			t.Fatalf("a leaf counts %d pages and maps %d", l.n, n)
		}
		resident += n
	}
	refs, bufs := 0, make(map[*byte]bool)
	for p, n := range held {
		if p.refs != n {
			t.Fatalf("an entry counts %d references and %d slots hold it", p.refs, n)
		}
		refs += p.refs
		if bufs[&p.data[0]] {
			t.Fatal("two entries share a buffer")
		}
		bufs[&p.data[0]] = true
	}
	if refs != resident || s.set.Live != len(held) {
		t.Fatalf("%d references for %d resident pages; %d entries live, %d held", refs, resident, s.set.Live, len(held))
	}
	for key, p := range s.set.index {
		n := 0
		for ; p != nil; p = p.next {
			if n++; p.refs <= 0 || held[p] == 0 || !p.indexed || p.key != key {
				t.Fatalf("indexed entry: refs %d, held %d, indexed %v, under its key %v", p.refs, held[p], p.indexed, p.key == key)
			}
		}
		if n > maxProbe {
			t.Fatalf("%d entries under one key, bound %d", n, maxProbe)
		}
	}
	for p := range prev {
		if held[p] > 0 {
			continue
		}
		if p.indexed || bufs[&p.data[0]] {
			t.Fatalf("a freed entry is still indexed (%v) or shares a held entry's buffer (%v)", p.indexed, bufs[&p.data[0]])
		}
		if bufpool.Poison && !bytes.Equal(p.data, bytes.Repeat([]byte{0xDB}, len(p.data))) {
			t.Fatal("a freed entry kept its bytes")
		}
	}
	return held
}

// modelCRC is ContentCRC recomputed from a flat image of the blocks from
// base on, every other block zero: each 64-block chunk holding a non-zero
// byte is hashed in LBA order, behind its chunk number.
func modelCRC(img []byte, base uint64, bs int) uint32 {
	crc := crc32.NewIEEE()
	var idbuf [8]byte
	end := base + uint64(len(img)/bs)
	chunk := make([]byte, chunkBlocks*bs)
	for cn := base / chunkBlocks; cn*chunkBlocks < end; cn++ {
		clear(chunk)
		for b := uint64(0); b < chunkBlocks; b++ {
			if lba := cn*chunkBlocks + b; lba >= base && lba < end {
				copy(chunk[b*uint64(bs):(b+1)*uint64(bs)], img[(lba-base)*uint64(bs):])
			}
		}
		if isZero(chunk) {
			continue
		}
		binary.LittleEndian.PutUint64(idbuf[:], cn)
		crc.Write(idbuf[:])
		crc.Write(chunk)
	}
	return crc.Sum32()
}

// FuzzMemStoreMatchesModel runs a sequence of whole-page, partial, zero and
// trim writes over sixteen pages that straddle a page-table leaf seam, at
// 512-byte or 4 KiB blocks, against a flat byte image. Payloads come from
// a palette of four patterns, so pages share content and entries are
// joined, patched in place and freed. After every step each read and
// ContentCRC match the image and the page set's books balance, with
// bufpool.Poison set.
func FuzzMemStoreMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0x00, 0, 8, 0x05, 8, 8, 0x02, 3, 2, 0x13, 1, 4})
	f.Add([]byte{1, 0x01, 2, 3, 0x11, 2, 3, 0x03, 7, 2, 0x02, 0, 16})
	f.Add([]byte{0, 0x01, 60, 12, 0x11, 61, 3, 0x00, 64, 8, 0x10, 64, 8, 0x03, 56, 24})
	f.Add([]byte{1, 0x00, 7, 2, 0x10, 7, 2, 0x20, 8, 1, 0x30, 6, 3, 0x02, 7, 1})
	f.Add([]byte{0, 0x00, 0, 0, 0x03, 0, 8, 0x10, 0, 0, 0x02, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
		bufpool.Poison = true
		if len(ops) == 0 {
			return
		}
		bs := []int{512, 4096}[ops[0]&1]
		pb := max(1, pageBytes/bs)
		const pages = 16
		base := uint64((leafPages - pages/2) * pb)
		blocks := pages * pb
		s := NewMemStore(uint32(bs))
		img := make([]byte, blocks*bs)
		got := make([]byte, len(img))
		var held map[*Page]int
		for ops = ops[1:]; len(ops) >= 3; ops = ops[3:] {
			op, at := ops[0], int(ops[1])%blocks
			n := min(1+int(ops[2])%(3*pb), blocks-at)
			seg := img[at*bs : (at+n)*bs]
			switch op & 3 {
			case 0, 1: // whole pages from the palette, or any blocks
				if op&3 == 0 {
					at -= at % pb
					n = min(pb*(1+n/pb), blocks-at)
					seg = img[at*bs : (at+n)*bs]
				}
				for i := range seg {
					seg[i] = byte(i*7) + (op>>4)&3 + 1
				}
				s.WriteBlocks(base+uint64(at), append([]byte(nil), seg...))
			case 2: // zeros
				clear(seg)
				s.WriteBlocks(base+uint64(at), make([]byte, len(seg)))
			default:
				clear(seg)
				s.TrimBlocks(base+uint64(at), uint32(n))
			}
			s.ReadBlocks(base, got)
			if !bytes.Equal(got, img) {
				t.Fatalf("bs %d: read mismatch after op %#x at %d x%d", bs, op, at, n)
			}
			if got, want := s.ContentCRC(), modelCRC(img, base, bs); got != want {
				t.Fatalf("bs %d: ContentCRC %08x, model %08x", bs, got, want)
			}
			held = auditPages(t, s, held)
		}
	})
}

// TestHostileKeysStayBounded writes thousands of pages whose sampled words
// are all alike and whose contents all differ, then rewrites each in part.
// Every read stays exact, no write compares more than maxProbe candidates,
// and content the bound leaves room for is still held once.
func TestHostileKeysStayBounded(t *testing.T) {
	defer func(p bool) { bufpool.Poison = p }(bufpool.Poison)
	bufpool.Poison = true
	const n = 3000
	const at = 100 // no sampled word covers bytes 100 and 101
	for j := 0; j < keyWords; j++ {
		if o := NewPages(pageBytes).offs[j]; o <= at+1 && at < o+8 {
			t.Fatalf("test set-up: sampled word %d at %d covers byte %d", j, o, at)
		}
	}
	hostile := func(i int) []byte {
		p := bytes.Repeat([]byte{0x3c}, pageBytes)
		binary.LittleEndian.PutUint16(p[at:], uint16(i))
		return p
	}
	s := NewMemStore(512)
	check := func(pn uint64, want []byte) {
		t.Helper()
		got := make([]byte, pageBytes)
		s.ReadBlocks(pn*8, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d does not read what was written", pn)
		}
	}
	for i := 0; i < n; i++ {
		p := hostile(i)
		if c := s.set.probe(p); c > maxProbe {
			t.Fatalf("write %d compares %d candidates, bound %d", i, c, maxProbe)
		}
		s.WriteBlocks(uint64(i)*8, p)
	}
	if got := s.set.Live; got != n {
		t.Fatalf("%d distinct hostile pages held in %d entries", n, got)
	}
	// Rewrite each page's first block, which carries the varying bytes: the
	// page is its only holder, so it is patched in place and re-keyed.
	for i := 0; i < n; i++ {
		want := hostile(n + i)
		if c := s.set.probe(want); c > maxProbe {
			t.Fatalf("rewrite %d compares %d candidates, bound %d", i, c, maxProbe)
		}
		s.WriteBlocks(uint64(i)*8, want[:512])
		check(uint64(i), want)
	}
	held := auditPages(t, s, nil)
	// Content under the full key still shares when it is indexed, and
	// content under any other key shares as ever.
	head := s.set.index[s.set.keyOf(nil, 0, pageBytes, hostile(n))]
	if head == nil {
		t.Fatal("no hostile content is indexed")
	}
	other := bytes.Repeat([]byte{0x5a}, pageBytes)
	live := s.set.Live
	for i := 0; i < 1000; i++ {
		s.WriteBlocks(uint64(n+2*i)*8, head.data)
		s.WriteBlocks(uint64(n+2*i+1)*8, other)
	}
	if got := s.set.Live; got != live+1 {
		t.Fatalf("2,000 copies of two contents took %d new entries, want 1", got-live)
	}
	for i := 0; i < n; i++ {
		check(uint64(i), hostile(n+i))
	}
	auditPages(t, s, held)
}
