package xts

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// The byte-wise XTS this package shipped before the sector kernel, kept
// verbatim (helpers renamed ref*) as the oracle the kernel is pinned to:
// one AES block at a time through a temporary, tweak doubled byte by byte.

func (c *Cipher) refTweakFor(sector uint64) [blockSize]byte {
	var t [blockSize]byte
	binary.LittleEndian.PutUint64(t[:8], sector)
	c.k2.Encrypt(t[:], t[:])
	return t
}

func refMulAlpha(t *[blockSize]byte) {
	carry := byte(0)
	for i := 0; i < blockSize; i++ {
		next := t[i] >> 7
		t[i] = t[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		t[0] ^= 0x87
	}
}

func refXorBlock(dst, a, b []byte) {
	for i := 0; i < blockSize; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

func (c *Cipher) refProcess(dst, src []byte, sector uint64, enc bool) error {
	if len(dst) != len(src) {
		return errors.New("xts: dst/src length mismatch")
	}
	if len(src) < blockSize {
		return errors.New("xts: data shorter than one AES block")
	}
	t := c.refTweakFor(sector)
	full := len(src) / blockSize
	rem := len(src) % blockSize

	cryptOne := func(dst, src []byte, tw *[blockSize]byte) {
		var tmp [blockSize]byte
		refXorBlock(tmp[:], src, tw[:])
		if enc {
			c.k1.Encrypt(tmp[:], tmp[:])
		} else {
			c.k1.Decrypt(tmp[:], tmp[:])
		}
		refXorBlock(dst, tmp[:], tw[:])
	}

	if rem == 0 {
		for i := 0; i < full; i++ {
			cryptOne(dst[i*blockSize:], src[i*blockSize:], &t)
			refMulAlpha(&t)
		}
		return nil
	}

	// Ciphertext stealing over the final partial block.
	for i := 0; i < full-1; i++ {
		cryptOne(dst[i*blockSize:], src[i*blockSize:], &t)
		refMulAlpha(&t)
	}
	last := (full - 1) * blockSize
	var t1, t2 [blockSize]byte
	t1 = t
	refMulAlpha(&t)
	t2 = t
	if !enc {
		// Decryption processes the tweaks in swapped order.
		t1, t2 = t2, t1
	}
	var head, tail [blockSize]byte
	cryptOne(head[:], src[last:last+blockSize], &t1)
	copy(tail[:], head[:])
	copy(tail[:rem], src[last+blockSize:])
	cryptOne(dst[last:last+blockSize], tail[:], &t2)
	copy(dst[last+blockSize:], head[:rem])
	return nil
}

// refBulk is the reference for EncryptBlocks/DecryptBlocks: refProcess per
// sector with consecutive sector numbers.
func (c *Cipher) refBulk(dst, src []byte, first uint64, sectorSize int, enc bool) {
	for off, s := 0, first; off < len(src); off, s = off+sectorSize, s+1 {
		if err := c.refProcess(dst[off:off+sectorSize], src[off:off+sectorSize], s, enc); err != nil {
			panic(err)
		}
	}
}

// TestKernelMatchesReference compares the kernel with the byte-wise
// reference byte for byte: both key sizes, every length from one block to
// 4 KiB plus every stealing remainder, 512- and 4096-byte sector runs, both
// directions, into a disjoint dst and into src itself.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for _, keyLen := range []int{32, 64} {
		c := Must(fill(keyLen))
		check := func(what string, n int, kernel func(dst, src []byte) error, ref func(dst, src []byte)) {
			t.Helper()
			src := fill(n)
			want := make([]byte, n)
			ref(want, src)
			got := fill(n) // stale bytes in dst must not matter
			if err := kernel(got, src); err != nil {
				t.Fatalf("key %d %s len %d: %v", keyLen, what, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key %d %s len %d: disjoint dst differs from reference", keyLen, what, n)
			}
			if err := kernel(src, src); err != nil {
				t.Fatalf("key %d %s len %d in place: %v", keyLen, what, n, err)
			}
			if !bytes.Equal(src, want) {
				t.Fatalf("key %d %s len %d: in-place result differs from reference", keyLen, what, n)
			}
		}
		for n := blockSize; n <= 4096+blockSize-1; n++ {
			sector := rng.Uint64()
			for _, enc := range []bool{true, false} {
				what := "decrypt"
				if enc {
					what = "encrypt"
				}
				check(what, n,
					func(dst, src []byte) error { return c.process(dst, src, sector, enc) },
					func(dst, src []byte) {
						if err := c.refProcess(dst, src, sector, enc); err != nil {
							t.Fatal(err)
						}
					})
			}
		}
		for _, sectorSize := range []int{512, 4096} {
			first := rng.Uint64()
			check("EncryptBlocks", 8192,
				func(dst, src []byte) error { return c.EncryptBlocks(dst, src, first, sectorSize) },
				func(dst, src []byte) { c.refBulk(dst, src, first, sectorSize, true) })
			check("DecryptBlocks", 8192,
				func(dst, src []byte) error { return c.DecryptBlocks(dst, src, first, sectorSize) },
				func(dst, src []byte) { c.refBulk(dst, src, first, sectorSize, false) })
		}
	}
}

// TestXTSZeroAlloc pins the kernel's reason for being: a 4 KiB request in
// 512-byte sectors, in place, allocates nothing in either direction.
func TestXTSZeroAlloc(t *testing.T) {
	c := Must(make([]byte, 64))
	buf := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if err := c.EncryptBlocks(buf, buf, 9, 512); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncryptBlocks: %v allocs per 4 KiB, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.DecryptBlocks(buf, buf, 9, 512); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecryptBlocks: %v allocs per 4 KiB, want 0", n)
	}
}
