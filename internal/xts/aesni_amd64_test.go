package xts

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestExpandKeyFIPS197 checks the key expansion against the last round key
// of FIPS-197 Appendix A.1 (AES-128) and A.3 (AES-256).
func TestExpandKeyFIPS197(t *testing.T) {
	for _, v := range []struct{ key, last string }{
		{"2b7e151628aed2a6abf7158809cf4f3c", "d014f9a8c9ee2589e13f0cc8b6630ca6"},
		{"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4", "fe4890d1e6188d0b046df344706c631e"},
	} {
		key, _ := hex.DecodeString(v.key)
		var s [schedLen]byte
		rounds := expandKey(&s, key)
		if got := hex.EncodeToString(s[rounds*blockSize : (rounds+1)*blockSize]); got != v.last {
			t.Errorf("key %s: round key %d is %s, want %s", v.key, rounds, got, v.last)
		}
	}
}

// TestSchedulesMatchCryptoAES runs one-block sectors through the AES-NI
// kernel, where XTS is C = E1(P ⊕ T) ⊕ T with T = E2(sector), and checks
// all three schedules (data key forward and inverted, tweak key) against
// crypto/aes's single-block Encrypt and Decrypt, for 1,000 random keys of
// each size.
func TestSchedulesMatchCryptoAES(t *testing.T) {
	needKernel(t, "aesni")
	rng := rand.New(rand.NewSource(31))
	for _, keyLen := range []int{32, 64} {
		for range 1000 {
			key := make([]byte, keyLen)
			rng.Read(key)
			c := Must(key)
			k1, _ := aes.NewCipher(key[:keyLen/2])
			k2, _ := aes.NewCipher(key[keyLen/2:])
			sector := rng.Uint64()
			var tweak, in, want, got [blockSize]byte
			binary.LittleEndian.PutUint64(tweak[:], sector)
			k2.Encrypt(tweak[:], tweak[:])
			rng.Read(in[:])
			for _, enc := range []bool{true, false} {
				subtle.XORBytes(want[:], in[:], tweak[:])
				if enc {
					k1.Encrypt(want[:], want[:])
				} else {
					k1.Decrypt(want[:], want[:])
				}
				subtle.XORBytes(want[:], want[:], tweak[:])
				c.ni.sectors(got[:], in[:], sector, blockSize, enc)
				if !bytes.Equal(got[:], want[:]) {
					t.Fatalf("key %x enc %v: kernel %x, crypto/aes %x", key, enc, got, want)
				}
			}
		}
	}
}
