package xts

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// IEEE P1619 test vector 1 (AES-128-XTS, all-zero keys and data).
func TestIEEEVector1(t *testing.T) {
	c := Must(make([]byte, 32))
	src := make([]byte, 32)
	dst := make([]byte, 32)
	if err := c.EncryptSector(dst, src, 0); err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e")
	if !bytes.Equal(dst, want) {
		t.Fatalf("got %x want %x", dst, want)
	}
}

// IEEE P1619 test vector 4 (sequential plaintext, sector 0).
func TestIEEEVector4(t *testing.T) {
	key := mustHex(t, "2718281828459045235360287471352631415926535897932384626433832795")
	c := Must(key)
	src := make([]byte, 512)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 512)
	if err := c.EncryptSector(dst, src, 0); err != nil {
		t.Fatal(err)
	}
	wantPrefix := mustHex(t, "27a7479befa1d476489f308cd4cfa6e2a96e4bbe3208ff25287dd3819616e89c")
	if !bytes.Equal(dst[:32], wantPrefix) {
		t.Fatalf("got %x want %x", dst[:32], wantPrefix)
	}
	got := make([]byte, 512)
	if err := c.DecryptSector(got, dst, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("decrypt mismatch")
	}
}

// IEEE P1619 test vector 15 (ciphertext stealing, 17 bytes).
func TestIEEEVectorCTS(t *testing.T) {
	key := mustHex(t, "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0bfbebdbcbbbab9b8b7b6b5b4b3b2b1b0")
	c := Must(key)
	src := mustHex(t, "000102030405060708090a0b0c0d0e0f10")
	dst := make([]byte, len(src))
	if err := c.EncryptSector(dst, src, 0x123456789a); err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, "6c1625db4671522d3d7599601de7ca09ed")
	if !bytes.Equal(dst, want) {
		t.Fatalf("got %x want %x", dst, want)
	}
	back := make([]byte, len(src))
	if err := c.DecryptSector(back, dst, 0x123456789a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("CTS decrypt mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i * 7)
	}
	c := Must(key)
	f := func(data []byte, sector uint64) bool {
		if len(data) < 16 {
			data = append(data, make([]byte, 16-len(data))...)
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		enc := make([]byte, len(data))
		if err := c.EncryptSector(enc, data, sector); err != nil {
			return false
		}
		dec := make([]byte, len(data))
		if err := c.DecryptSector(dec, enc, sector); err != nil {
			return false
		}
		return bytes.Equal(dec, data) && !bytes.Equal(enc, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSectorTweakMatters(t *testing.T) {
	c := Must(make([]byte, 64))
	src := bytes.Repeat([]byte{0xab}, 512)
	e1 := make([]byte, 512)
	e2 := make([]byte, 512)
	c.EncryptSector(e1, src, 1)
	c.EncryptSector(e2, src, 2)
	if bytes.Equal(e1, e2) {
		t.Fatal("different sectors must produce different ciphertext")
	}
	// Decrypting with the wrong sector must not recover plaintext.
	d := make([]byte, 512)
	c.DecryptSector(d, e1, 2)
	if bytes.Equal(d, src) {
		t.Fatal("wrong-sector decrypt recovered plaintext")
	}
}

func TestBulkBlocksMatchesPerSector(t *testing.T) {
	key := bytes.Repeat([]byte{3}, 32)
	c := Must(key)
	src := make([]byte, 4*512)
	for i := range src {
		src[i] = byte(i * 13)
	}
	bulk := make([]byte, len(src))
	if err := c.EncryptBlocks(bulk, src, 100, 512); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		one := make([]byte, 512)
		c.EncryptSector(one, src[i*512:(i+1)*512], uint64(100+i))
		if !bytes.Equal(one, bulk[i*512:(i+1)*512]) {
			t.Fatalf("sector %d differs between bulk and single", i)
		}
	}
	dec := make([]byte, len(src))
	if err := c.DecryptBlocks(dec, bulk, 100, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatal("bulk round trip")
	}
}

func TestInPlaceOperation(t *testing.T) {
	c := Must(make([]byte, 32))
	data := bytes.Repeat([]byte{0x42}, 512)
	orig := append([]byte{}, data...)
	c.EncryptSector(data, data, 7)
	if bytes.Equal(data, orig) {
		t.Fatal("in-place encrypt did nothing")
	}
	c.DecryptSector(data, data, 7)
	if !bytes.Equal(data, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := New(make([]byte, 33)); err == nil {
		t.Fatal("bad key size accepted")
	}
	c := Must(make([]byte, 32))
	if err := c.EncryptSector(make([]byte, 8), make([]byte, 8), 0); err == nil {
		t.Fatal("sub-block data accepted")
	}
	if err := c.EncryptSector(make([]byte, 32), make([]byte, 16), 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := c.EncryptBlocks(make([]byte, 100), make([]byte, 100), 0, 512); err == nil {
		t.Fatal("non-multiple bulk accepted")
	}
	// sgx.Job.SectorSize is caller-supplied: a zero size used to divide by
	// zero and a negative one walked the offset backwards out of the slice.
	for _, sectorSize := range []int{0, -512, 15} {
		if err := c.EncryptBlocks(make([]byte, 512), make([]byte, 512), 0, sectorSize); err == nil {
			t.Fatalf("sector size %d accepted", sectorSize)
		}
	}
	if err := c.DecryptBlocks(make([]byte, 512), make([]byte, 1024), 0, 512); err == nil {
		t.Fatal("bulk length mismatch accepted")
	}
}

func BenchmarkEncrypt4K(b *testing.B) {
	c := Must(make([]byte, 64))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.EncryptBlocks(buf, buf, uint64(i), 512)
	}
}

func BenchmarkDecrypt4K(b *testing.B) {
	c := Must(make([]byte, 64))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.DecryptBlocks(buf, buf, uint64(i), 512)
	}
}
