package xts

import (
	"bytes"
	"encoding/hex"
	"sync"
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
	if err := c.process(dst, src, 0, true); err != nil {
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
	if err := c.process(dst, src, 0, true); err != nil {
		t.Fatal(err)
	}
	wantPrefix := mustHex(t, "27a7479befa1d476489f308cd4cfa6e2a96e4bbe3208ff25287dd3819616e89c")
	if !bytes.Equal(dst[:32], wantPrefix) {
		t.Fatalf("got %x want %x", dst[:32], wantPrefix)
	}
	got := make([]byte, 512)
	if err := c.process(got, dst, 0, false); err != nil {
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
	if err := c.process(dst, src, 0x123456789a, true); err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, "6c1625db4671522d3d7599601de7ca09ed")
	if !bytes.Equal(dst, want) {
		t.Fatalf("got %x want %x", dst, want)
	}
	back := make([]byte, len(src))
	if err := c.process(back, dst, 0x123456789a, false); err != nil {
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
		if err := c.process(enc, data, sector, true); err != nil {
			return false
		}
		dec := make([]byte, len(data))
		if err := c.process(dec, enc, sector, false); err != nil {
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
	c.process(e1, src, 1, true)
	c.process(e2, src, 2, true)
	if bytes.Equal(e1, e2) {
		t.Fatal("different sectors must produce different ciphertext")
	}
	// Decrypting with the wrong sector must not recover plaintext.
	d := make([]byte, 512)
	c.process(d, e1, 2, false)
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
		c.process(one, src[i*512:(i+1)*512], uint64(100+i), true)
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
	c.process(data, data, 7, true)
	if bytes.Equal(data, orig) {
		t.Fatal("in-place encrypt did nothing")
	}
	c.process(data, data, 7, false)
	if !bytes.Equal(data, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := New(make([]byte, 33)); err == nil {
		t.Fatal("bad key size accepted")
	}
	c := Must(make([]byte, 32))
	if err := c.process(make([]byte, 8), make([]byte, 8), 0, true); err == nil {
		t.Fatal("sub-block data accepted")
	}
	if err := c.process(make([]byte, 32), make([]byte, 16), 0, true); err == nil {
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
	// sgx.Job.Dst and Src are caller-supplied too: a dst shifted against
	// src overwrites source blocks before they are read, so only exact
	// aliasing is accepted.
	buf := make([]byte, 2048)
	const lo = 512
	for _, shift := range []int{-16, 8, 16, 256} {
		dst, src := buf[lo+shift:lo+shift+512], buf[lo:lo+512]
		if err := c.EncryptBlocks(dst, src, 3, 512); err == nil {
			t.Errorf("EncryptBlocks with dst shifted %+d against src accepted", shift)
		}
		if err := c.DecryptBlocks(dst, src, 3, 512); err == nil {
			t.Errorf("DecryptBlocks with dst shifted %+d against src accepted", shift)
		}
		if err := c.process(dst, src, 3, true); err == nil {
			t.Errorf("process with dst shifted %+d against src accepted", shift)
		}
	}
	if err := c.EncryptBlocks(buf[lo:lo+512], buf[lo-512:lo], 3, 512); err != nil {
		t.Errorf("adjacent dst and src refused: %v", err)
	}
}

// TestConcurrentUse shares one Cipher between goroutines, as the SGX
// enclave's worker threads do: a Cipher is read-only after New.
func TestConcurrentUse(t *testing.T) {
	c := Must(bytes.Repeat([]byte{5}, 64))
	plain := bytes.Repeat([]byte{0x6b}, 4096)
	want := make([]byte, len(plain))
	if err := c.EncryptBlocks(want, plain, 40, 512); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(plain))
			for range 200 {
				copy(buf, plain)
				if err := c.EncryptBlocks(buf, buf, 40, 512); err != nil || !bytes.Equal(buf, want) {
					t.Errorf("concurrent EncryptBlocks: err %v, ciphertext differs %v", err, !bytes.Equal(buf, want))
					return
				}
				if err := c.DecryptBlocks(buf, buf, 40, 512); err != nil || !bytes.Equal(buf, plain) {
					t.Errorf("concurrent DecryptBlocks: err %v, plaintext differs %v", err, !bytes.Equal(buf, plain))
					return
				}
			}
		}()
	}
	wg.Wait()
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
