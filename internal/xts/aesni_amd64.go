package xts

import (
	"encoding/binary"
	"math/bits"
)

// hasAESNI reports CPUID.1:ECX.AESNI[bit 25], read once at init.
var hasAESNI = cpuidECX(1)&(1<<25) != 0

// cpuidECX returns ECX of CPUID leaf leaf (subleaf 0).
func cpuidECX(leaf uint32) uint32

// cryptSectors runs n ≥ 1 consecutive sectors of blocks 16-byte blocks
// each, numbered from first, from src to dst. rk is the data key's schedule
// for the direction (the equivalent inverse cipher's when decrypt), tk the
// tweak key's encryption schedule, rounds 10 or 14.
//
//go:noescape
func cryptSectors(rk, tk *[schedLen]byte, rounds int, dst, src *byte, n, blocks int, first uint64, decrypt bool)

// schedLen holds AES-256's 15 round keys.
const schedLen = 15 * blockSize

// niKeys are the AES-NI kernel's round keys, expanded once in New: the data
// key forward and inverted, and the tweak key forward. Round key r is bytes
// [16r, 16r+16), in the byte order AESENC takes.
type niKeys struct {
	rounds          int
	enc, dec, tweak [schedLen]byte
}

// sectors runs the assembly kernel over whole-block sectors; bulk has
// checked the buffers.
func (k *niKeys) sectors(dst, src []byte, first uint64, sectorSize int, enc bool) {
	rk := &k.dec
	if enc {
		rk = &k.enc
	}
	cryptSectors(rk, &k.tweak, k.rounds, &dst[0], &src[0], len(src)/sectorSize, sectorSize/blockSize, first, !enc)
}

// expand fills the schedules from an XTS key: data key, then tweak key.
func (k *niKeys) expand(key []byte) {
	half := len(key) / 2
	k.rounds = expandKey(&k.enc, key[:half])
	expandKey(&k.tweak, key[half:])
	// The equivalent inverse cipher (FIPS-197 §5.3.5): the encryption
	// round keys in reverse order, all but the outer two through
	// InvMixColumns.
	for r := 0; r <= k.rounds; r++ {
		rk := k.dec[r*blockSize : (r+1)*blockSize]
		copy(rk, k.enc[(k.rounds-r)*blockSize:])
		if r != 0 && r != k.rounds {
			invMixColumns(rk)
		}
	}
}

// expandKey is the FIPS-197 §5.2 key expansion of a 16- or 32-byte AES
// key into s; it returns the number of rounds.
func expandKey(s *[schedLen]byte, key []byte) int {
	nk := len(key) / 4
	rounds := nk + 6
	var w [60]uint32
	for i := range nk {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := byte(1)
	for i := nk; i < 4*(rounds+1); i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(bits.RotateLeft32(t, 8)) ^ uint32(rcon)<<24
			rcon = xtime(rcon)
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	for i := range 4 * (rounds + 1) {
		binary.BigEndian.PutUint32(s[4*i:], w[i])
	}
	return rounds
}

// sbox is the AES S-box (FIPS-197 §5.1.1): the multiplicative inverse in
// GF(2^8) (0 for 0) through the affine map. Powers of the generator 3 give
// the inverse as 3^(255-log x).
var sbox = func() (s [256]byte) {
	var exp [255]byte
	var log [256]int
	for i, x := 0, byte(1); i < 255; i, x = i+1, x^xtime(x) {
		exp[i], log[x] = x, i
	}
	for x := range 256 {
		var inv byte
		if x != 0 {
			inv = exp[(255-log[x])%255]
		}
		s[x] = inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
			bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
	}
	return s
}()

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// xtime multiplies by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// invMixColumns applies InvMixColumns (FIPS-197 §5.3.3) to a round key,
// column by column, as MixColumns after adding x^2·(a0+a2) to a0 and a2 and
// x^2·(a1+a3) to a1 and a3 (the inverse matrix factors that way).
func invMixColumns(rk []byte) {
	for c := 0; c < blockSize; c += 4 {
		a0, a1, a2, a3 := rk[c], rk[c+1], rk[c+2], rk[c+3]
		u, v := xtime(xtime(a0^a2)), xtime(xtime(a1^a3))
		a0, a1, a2, a3 = a0^u, a1^v, a2^u, a3^v
		t := a0 ^ a1 ^ a2 ^ a3
		rk[c] = a0 ^ t ^ xtime(a0^a1)
		rk[c+1] = a1 ^ t ^ xtime(a1^a2)
		rk[c+2] = a2 ^ t ^ xtime(a2^a3)
		rk[c+3] = a3 ^ t ^ xtime(a3^a0)
	}
}
