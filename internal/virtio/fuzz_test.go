package virtio

import (
	"encoding/binary"
	"testing"

	"nvmetro/internal/guestmem"
)

// fuzzQueueSize is the queue FuzzParseChain parses against.
const fuzzQueueSize = 8

// fuzzHdrAddr is the guest page after the ring, where the fuzz input's
// request header lands.
const fuzzHdrAddr = 2 * guestmem.PageSize

// chainInput encodes a FuzzParseChain input: the descriptor table, the
// avail entry's head, then the request header.
func chainInput(descs []Desc, head uint16, hdr []byte) []byte {
	b := make([]byte, fuzzQueueSize*descSize+2, fuzzQueueSize*descSize+2+len(hdr))
	for i, d := range descs {
		e := b[i*descSize:]
		binary.LittleEndian.PutUint64(e[0:8], d.Addr)
		binary.LittleEndian.PutUint32(e[8:12], d.Len)
		binary.LittleEndian.PutUint16(e[12:14], d.Flags)
		binary.LittleEndian.PutUint16(e[14:16], d.Next)
	}
	binary.LittleEndian.PutUint16(b[fuzzQueueSize*descSize:], head)
	return append(b, hdr...)
}

// linked returns n descriptors chained in order over the header page; loop
// points the last one back at the first.
func linked(n int, loop bool) []Desc {
	ds := make([]Desc, n)
	for i := range ds {
		ds[i] = Desc{Addr: fuzzHdrAddr, Len: 16}
		if i < n-1 {
			ds[i].Flags, ds[i].Next = descNext, uint16(i+1)
		} else if loop {
			ds[i].Flags, ds[i].Next = descNext, 0
		}
	}
	return ds
}

// FuzzParseChain feeds the device side what a guest controls: the bytes of
// the descriptor table, the head in the avail entry and the request header.
// ParseChain, BlkHeader and ParseSCSICDB must not panic, and a chain
// ParseChain accepts has at most queue-size descriptors, every buffer
// inside guest memory. The seeds are TestReadChainRejectsHostileIndices'
// rows that a fixed table placement can express, plus a well-formed
// request.
func FuzzParseChain(f *testing.F) {
	hdr := make([]byte, scsiHdrSize)
	f.Add(chainInput(linked(1, false), fuzzQueueSize, hdr))
	f.Add(chainInput([]Desc{{Addr: fuzzHdrAddr, Len: 16, Flags: descNext, Next: fuzzQueueSize}}, 0, hdr))
	f.Add(chainInput(linked(fuzzQueueSize, false), 0, hdr))
	f.Add(chainInput(linked(fuzzQueueSize, true), 0, hdr))
	f.Add(chainInput([]Desc{
		{Addr: fuzzHdrAddr, Len: 16, Flags: descNext, Next: 1},
		{Addr: fuzzHdrAddr + 512, Len: 512, Flags: descNext | descWrite, Next: 2},
		{Addr: fuzzHdrAddr + 64, Len: 1, Flags: descWrite},
	}, 0, hdr))
	f.Fuzz(func(t *testing.T, in []byte) {
		mem := guestmem.New(1 << 20)
		ring := newVring(mem, fuzzQueueSize)
		q := &Queue{Ring: ring, Mem: mem}
		table := make([]byte, fuzzQueueSize*descSize)
		in = in[copy(table, in):]
		mem.WriteAt(table, ring.descAddr)
		var head [2]byte
		in = in[copy(head[:], in):]
		mem.WriteAt(in[:min(len(in), guestmem.PageSize)], fuzzHdrAddr)

		r, err := parseChain(q, binary.LittleEndian.Uint16(head[:]))
		if err != nil {
			return
		}
		if n := len(r.Data) + 2; n > fuzzQueueSize {
			t.Fatalf("accepted a %d-descriptor chain from a %d-entry queue", n, fuzzQueueSize)
		}
		bufs := append([]Desc{{Addr: r.HdrAddr, Len: r.HdrLen}}, r.Data...)
		for _, d := range bufs {
			if d.Addr+uint64(d.Len) > mem.Size() {
				t.Fatalf("accepted buffer [%#x, +%d) past guest memory (%d bytes)", d.Addr, d.Len, mem.Size())
			}
		}
		r.BlkHeader(q)
		ParseSCSICDB(mem, r.HdrAddr)
	})
}
