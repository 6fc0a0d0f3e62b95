package xts

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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

// kernels are the two ways bulk can run a call: the Go kernel sector by
// sector, and the AES-NI kernel over every sector at once, which takes only
// whole-block sectors and runs only on CPUs with AES-NI (needKernel).
var kernels = []struct {
	name string
	run  func(c *Cipher, dst, src []byte, first uint64, sectorSize int, enc bool)
}{
	{"go", func(c *Cipher, dst, src []byte, first uint64, sectorSize int, enc bool) {
		for off, s := 0, first; off < len(src); off, s = off+sectorSize, s+1 {
			if err := c.process(dst[off:off+sectorSize], src[off:off+sectorSize], s, enc); err != nil {
				panic(err)
			}
		}
	}},
	{"aesni", func(c *Cipher, dst, src []byte, first uint64, sectorSize int, enc bool) {
		c.ni.sectors(dst, src, first, sectorSize, enc)
	}},
}

// needKernel skips t where the named kernel does not run.
func needKernel(t testing.TB, name string) {
	t.Helper()
	if name == "aesni" && !hasAESNI {
		t.Skip("no AES-NI kernel on this machine: only the Go kernel runs here")
	}
}

// TestKernelMatchesReference compares each kernel with the byte-wise
// reference byte for byte: both key sizes, every one-sector length from one
// block to 4 KiB plus every stealing remainder (whole-block lengths only for
// the AES-NI kernel: every 1-7 block remainder past its 8-wide groups),
// 512- and 4096-byte sector runs, both directions, into a disjoint dst, into
// src itself, and between buffers at odd addresses.
func TestKernelMatchesReference(t *testing.T) {
	for _, k := range kernels {
		for _, keyLen := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/key%d", k.name, keyLen), func(t *testing.T) {
				needKernel(t, k.name)
				rng := rand.New(rand.NewSource(int64(23 + keyLen)))
				fill := func(n int) []byte {
					b := make([]byte, n)
					rng.Read(b)
					return b
				}
				c := Must(fill(keyLen))
				check := func(n, sectorSize int, enc bool) {
					t.Helper()
					first := rng.Uint64()
					src := fill(n)
					want := make([]byte, n)
					c.refBulk(want, src, first, sectorSize, enc)
					got := fill(n) // stale bytes in dst must not matter
					k.run(c, got, src, first, sectorSize, enc)
					if !bytes.Equal(got, want) {
						t.Fatalf("len %d sector %d enc %v: disjoint dst differs from reference", n, sectorSize, enc)
					}
					// src and dst at odd offsets into one allocation, so
					// at odd addresses.
					odd, d := fill(2*n+3), (n+1)|1
					oddSrc, oddDst := odd[1:n+1], odd[d:d+n]
					copy(oddSrc, src)
					k.run(c, oddDst, oddSrc, first, sectorSize, enc)
					if !bytes.Equal(oddDst, want) {
						t.Fatalf("len %d sector %d enc %v: misaligned dst differs from reference", n, sectorSize, enc)
					}
					k.run(c, oddSrc, oddSrc, first, sectorSize, enc)
					if !bytes.Equal(oddSrc, want) {
						t.Fatalf("len %d sector %d enc %v: in-place result differs from reference", n, sectorSize, enc)
					}
				}
				for n := blockSize; n <= 4096+blockSize-1; n++ {
					if k.name == "aesni" && n%blockSize != 0 {
						continue
					}
					check(n, n, true)
					check(n, n, false)
				}
				for _, sectorSize := range []int{512, 4096} {
					check(8192, sectorSize, true)
					check(8192, sectorSize, false)
				}
			})
		}
	}
}

// TestXTSZeroAlloc pins the kernels' reason for being: a 4 KiB request in
// 512-byte sectors, in place, allocates nothing in either direction,
// whichever kernel runs it.
func TestXTSZeroAlloc(t *testing.T) {
	c := Must(make([]byte, 64))
	buf := make([]byte, 4096)
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			needKernel(t, k.name)
			for _, enc := range []bool{true, false} {
				if n := testing.AllocsPerRun(100, func() {
					k.run(c, buf, buf, 9, 512, enc)
				}); n != 0 {
					t.Errorf("enc %v: %v allocs per 4 KiB, want 0", enc, n)
				}
			}
		})
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.EncryptBlocks(buf, buf, 9, 512); err != nil {
			t.Fatal(err)
		}
		if err := c.DecryptBlocks(buf, buf, 9, 512); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncryptBlocks+DecryptBlocks: %v allocs per 4 KiB, want 0", n)
	}
}

// FuzzXTSKernel runs one call through the byte-wise reference, the Go
// kernel and (whole-block sectors, AES-NI present) the AES-NI kernel, and
// requires the same bytes, then the round trip through EncryptBlocks and
// DecryptBlocks. The data splits into 1 + sectors%8 equal sectors; the
// key's first 64 bytes (or 32 when shorter) are the XTS key.
func FuzzXTSKernel(f *testing.F) {
	seq := make([]byte, 512)
	for i := range seq {
		seq[i] = byte(i)
	}
	// The IEEE P1619 vectors of TestIEEEVector1, TestIEEEVector4 and
	// TestIEEEVectorCTS.
	f.Add(make([]byte, 32), uint64(0), make([]byte, 32), uint8(0), true, false)
	ieee4, _ := hex.DecodeString("2718281828459045235360287471352631415926535897932384626433832795")
	f.Add(ieee4, uint64(0), seq, uint8(0), true, true)
	ieee15, _ := hex.DecodeString("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0bfbebdbcbbbab9b8b7b6b5b4b3b2b1b0")
	f.Add(ieee15, uint64(0x123456789a), seq[:17], uint8(0), false, false)
	f.Fuzz(func(t *testing.T, key []byte, first uint64, data []byte, sectors uint8, enc, inPlace bool) {
		switch {
		case len(key) >= 64:
			key = key[:64]
		case len(key) >= 32:
			key = key[:32]
		default:
			return
		}
		n := 1 + int(sectors%8)
		sectorSize := min(len(data), 1<<14) / n
		if sectorSize < blockSize {
			return
		}
		src := data[:n*sectorSize]
		c := Must(key)
		want := make([]byte, len(src))
		c.refBulk(want, src, first, sectorSize, enc)
		for _, k := range kernels {
			if k.name == "aesni" && (!hasAESNI || sectorSize%blockSize != 0) {
				continue
			}
			dst := make([]byte, len(src))
			if inPlace {
				copy(dst, src)
				k.run(c, dst, dst, first, sectorSize, enc)
			} else {
				k.run(c, dst, src, first, sectorSize, enc)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s kernel differs from reference: key %d, %d sectors of %d, enc %v, in place %v",
					k.name, len(key), n, sectorSize, enc, inPlace)
			}
		}
		back := append([]byte(nil), want...)
		if enc {
			err := c.DecryptBlocks(back, back, first, sectorSize)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("DecryptBlocks does not undo the encryption (err %v)", err)
			}
		} else {
			err := c.EncryptBlocks(back, back, first, sectorSize)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("EncryptBlocks does not undo the decryption (err %v)", err)
			}
		}
	})
}
