// Encryption: the paper's transparent data-encryption storage function.
// An eBPF classifier routes reads device-then-UIF (decrypt) and hands
// writes to the UIF, which encrypts with XTS-AES and persists ciphertext
// itself. The guest sees plaintext; the device never does.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nvmetro"
	"nvmetro/internal/vm"
)

func main() {
	cfg := nvmetro.Defaults() // BackingMem: the device keeps real contents
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	key := bytes.Repeat([]byte{0xA5, 0x5A}, 32) // 512-bit XTS key
	guest := sys.NewVM(2, 64<<20)
	disk, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: key}})
	if err != nil {
		log.Fatal(err)
	}

	secret := bytes.Repeat([]byte("TOP-SECRET! "), 256) // 3 KiB, padded to blocks
	secret = secret[:2560]                              // 5 blocks

	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(secret)))
		if err != nil {
			log.Fatal(err)
		}
		guest.Mem.WriteAt(secret, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 100, Blocks: 5, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			log.Fatalf("write: %v", st)
		}
		fmt.Println("guest wrote 5 blocks of plaintext")

		// Peek at the physical device: it must hold ciphertext.
		raw := make([]byte, len(secret))
		sys.DeviceUnderTest().Namespace(1).Store.ReadBlocks(100, raw)
		if bytes.Contains(raw, []byte("TOP-SECRET")) {
			log.Fatal("SECURITY FAILURE: plaintext on the device!")
		}
		fmt.Printf("device holds ciphertext: % x ...\n", raw[:16])

		// The guest reads transparent plaintext back.
		got := make([]byte, len(secret))
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 100, Blocks: 5, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			log.Fatalf("read: %v", st)
		}
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, secret) {
			log.Fatal("decryption mismatch")
		}
		fmt.Println("guest read plaintext back — transparent encryption works")
	})
	if !ok {
		log.Fatal("did not finish")
	}

	// Benchmark the encrypted disk.
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.SeqWrite, BlockSize: 16 << 10, QD: 32,
		Warmup: 2 * nvmetro.Millisecond, Duration: 20 * nvmetro.Millisecond,
	}, disk.Targets(2))
	fmt.Printf("encrypted 16K seqwrite qd32: %.1f kIOPS (%.0f MB/s), cpu=%.2f cores\n",
		res.KIOPS(), res.MBps(), res.CPUCores)
}
