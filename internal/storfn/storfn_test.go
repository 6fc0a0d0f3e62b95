package storfn_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sgx"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
	"nvmetro/internal/xts"
)

var testKey = bytes.Repeat([]byte{0x5c}, 64)

// host is a full single-host NVMetro deployment for integration tests.
type host struct {
	env    *sim.Env
	cpu    *sim.CPU
	dev    *device.Device
	store  *device.MemStore
	router *core.Router
	fw     *uif.Framework
}

func newHost() *host {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 16)
	store := device.NewMemStore(512)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, store)
	router := core.NewRouter(env, core.DefaultRouterCosts(), []*sim.Thread{cpu.ThreadOn(8, "router")})
	fw := uif.NewFramework(env, uif.DefaultCosts(), []*sim.Thread{cpu.ThreadOn(9, "uif"), cpu.ThreadOn(10, "uif")})
	return &host{env: env, cpu: cpu, dev: dev, store: store, router: router, fw: fw}
}

func (h *host) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	h.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; h.env.Stop() })
	h.env.RunUntil(sim.Time(60 * sim.Second))
	if !ok {
		t.Fatal("test did not finish in simulated time")
	}
}

func (h *host) addVM(t testing.TB, id int) (*vm.VM, *core.Controller, *vm.NVMeDisk) {
	v := vm.New(h.env, id, h.cpu, id, 1, 32<<20, vm.DefaultVirtCosts())
	vc := h.router.Attach(v, device.WholeNamespace(h.dev, 1))
	disk := vm.NewNVMeDisk(v, vc, 64, vm.DefaultDriverCosts())
	return v, vc, disk
}

func doIO(p *sim.Proc, v *vm.VM, disk *vm.NVMeDisk, op vm.Op, lba uint64, data []byte) nvme.Status {
	base, pages, err := v.Mem.AllocBuffer(uint32(len(data)))
	if err != nil {
		panic(err)
	}
	if op == vm.OpWrite {
		v.Mem.WriteAt(data, base)
	}
	r := &vm.Req{Op: op, LBA: lba, Blocks: uint32(len(data)) / 512, Buf: base, BufPages: pages}
	st := vm.SubmitAndWait(p, disk, v.VCPU(0), r)
	if op == vm.OpRead && st.OK() {
		v.Mem.ReadAt(data, base)
	}
	return st
}

// setupEncryption wires the encryption storage function for a VM.
func setupEncryption(t testing.TB, h *host, vc *core.Controller) *storfn.Encryptor {
	t.Helper()
	part := vc.Partition()
	prog, _ := storfn.EncryptorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	enc, err := storfn.NewEncryptor(testKey, storfn.DefaultEncryptorCosts())
	if err != nil {
		t.Fatal(err)
	}
	bdev := blockdev.NewNVMeBlockDev(h.env, part, h.cpu, 11, blockdev.DefaultCosts())
	ring := blockdev.NewURing(h.env, bdev, blockdev.DefaultURingCosts())
	h.fw.Attach(vc.AttachUIF(256), enc, ring)
	return enc
}

func TestEncryptionEndToEnd(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	enc := setupEncryption(t, h, vc)
	plain := make([]byte, 8192)
	for i := range plain {
		plain[i] = byte(i * 31)
	}
	h.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 100, plain); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// The device holds ciphertext, in dm-crypt-compatible XTS format.
		raw := make([]byte, len(plain))
		h.store.ReadBlocks(100, raw)
		if bytes.Equal(raw, plain) {
			t.Fatal("plaintext reached the disk")
		}
		want := make([]byte, len(plain))
		xts.Must(testKey).EncryptBlocks(want, plain, 100, 512)
		if !bytes.Equal(raw, want) {
			t.Fatal("on-disk format not XTS-plain64 compatible")
		}
		// The guest reads back transparent plaintext.
		got := make([]byte, len(plain))
		if st := doIO(p, v, disk, vm.OpRead, 100, got); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(got, plain) {
			t.Fatal("guest read is not the original plaintext")
		}
		// Flushes pass straight to the device.
		f := &vm.Req{Op: vm.OpFlush}
		if st := vm.SubmitAndWait(p, disk, v.VCPU(0), f); !st.OK() {
			t.Fatalf("flush: %v", st)
		}
	})
	if enc.Reads != 1 || enc.Writes != 1 {
		t.Fatalf("UIF stats r=%d w=%d", enc.Reads, enc.Writes)
	}
}

// BenchmarkEncryptorWrite4K is the host cost of one encrypted 4 KiB guest
// write end to end: router hop to the notify queue, the UIF pulling the
// payload out of guest memory into a request buffer, XTS in place, io_uring,
// the host block layer's bounce and the device, QD1. allocs/op is the
// number to watch: payload buffers and the cipher contribute none.
func BenchmarkEncryptorWrite4K(b *testing.B) {
	h := newHost()
	defer h.env.Close()
	v, vc, disk := h.addVM(b, 0)
	enc := setupEncryption(b, h, vc)
	base, pages, err := v.Mem.AllocBuffer(4096)
	if err != nil {
		b.Fatal(err)
	}
	v.Mem.WriteAt(bytes.Repeat([]byte{0xa7, 0x19}, 2048), base)
	b.ReportAllocs()
	b.SetBytes(4096)
	h.env.Go("bench", func(p *sim.Proc) {
		write := func(i int) {
			r := &vm.Req{Op: vm.OpWrite, LBA: uint64(i%4096) * 8, Blocks: 8, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
				b.Errorf("write %d: %v", i, st)
			}
		}
		for i := 0; i < 64; i++ { // free lists, rings and the backing store warm
			write(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(i)
		}
		b.StopTimer()
		h.env.Stop()
	})
	h.env.Run()
	if enc.Writes != uint64(b.N)+64 {
		b.Fatalf("%d writes reached the encryptor, want %d", enc.Writes, b.N+64)
	}
}

func TestEncryptionManyBlocksAndSizes(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	setupEncryption(t, h, vc)
	h.run(t, func(p *sim.Proc) {
		for i, size := range []int{512, 1024, 4096, 16384, 131072} {
			lba := uint64(i * 1000)
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(j ^ i)
			}
			if st := doIO(p, v, disk, vm.OpWrite, lba, data); !st.OK() {
				t.Fatalf("write %d: %v", size, st)
			}
			got := make([]byte, size)
			if st := doIO(p, v, disk, vm.OpRead, lba, got); !st.OK() {
				t.Fatalf("read %d: %v", size, st)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch at size %d", size)
			}
		}
	})
}

func TestSGXEncryptionEndToEnd(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()
	prog, _ := storfn.EncryptorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	enclave, err := sgx.Launch(h.env, h.cpu, testKey)
	if err != nil {
		t.Fatal(err)
	}
	enc := storfn.NewSGXEncryptor(enclave, storfn.DefaultEncryptorCosts())
	bdev := blockdev.NewNVMeBlockDev(h.env, part, h.cpu, 11, blockdev.DefaultCosts())
	ring := blockdev.NewURing(h.env, bdev, blockdev.DefaultURingCosts())
	h.fw.Attach(vc.AttachUIF(256), enc, ring)

	plain := bytes.Repeat([]byte{0xbe, 0xef}, 2048)
	h.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 50, plain); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// SGX and plain UIFs produce identical ciphertext (same XTS format).
		raw := make([]byte, len(plain))
		h.store.ReadBlocks(50, raw)
		want := make([]byte, len(plain))
		xts.Must(testKey).EncryptBlocks(want, plain, 50, 512)
		if !bytes.Equal(raw, want) {
			t.Fatal("SGX ciphertext differs from plain XTS")
		}
		got := make([]byte, len(plain))
		if st := doIO(p, v, disk, vm.OpRead, 50, got); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(got, plain) {
			t.Fatal("SGX round trip mismatch")
		}
	})
	if enclave.Switchless == 0 {
		t.Fatal("enclave never used switchless calls")
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()
	prog, _ := storfn.ReplicatorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	// Remote host with the secondary drive.
	remoteCPU := sim.NewCPU(h.env, 4)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rstore := device.NewMemStore(512)
	rdev := device.New(h.env, rp, rstore)
	rbdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(rdev, 1), remoteCPU, 3, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(h.env)
	tgt := nvmeof.NewTarget(h.env, rbdev, remoteCPU)
	initiator := nvmeof.NewInitiator(h.env, link, tgt)

	rep := storfn.NewReplicator()
	ring := blockdev.NewURing(h.env, initiator, blockdev.DefaultURingCosts())
	h.fw.Attach(vc.AttachUIF(256), rep, ring)

	data := bytes.Repeat([]byte{0x3c}, 4096)
	h.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 200, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		got := make([]byte, len(data))
		h.store.ReadBlocks(200, got)
		if !bytes.Equal(got, data) {
			t.Fatal("primary missing data")
		}
		rstore.ReadBlocks(200, got)
		if !bytes.Equal(got, data) {
			t.Fatal("secondary missing data: replication failed")
		}
		// Reads are local: remote target sees no more traffic.
		served := tgt.Served
		if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() || !bytes.Equal(got, data) {
			t.Fatalf("read: %v", st)
		}
		if tgt.Served != served {
			t.Fatal("read crossed the fabric")
		}
	})
	if rep.Forwarded != 1 {
		t.Fatalf("forwarded %d", rep.Forwarded)
	}
}

func TestClassifierSourcesVerify(t *testing.T) {
	// Every shipped classifier must pass the router's verifier.
	env := sim.New(1)
	dev := device.New(env, device.Default970EvoPlus(), device.NullStore{})
	part := device.Partition{Dev: dev, NSID: 1, Start: 4096, Blocks: 8192}
	v := core.NewVerifier()
	progPart, _ := storfn.PartitionClassifier(part)
	progEnc, _ := storfn.EncryptorClassifier(part)
	progRep, _ := storfn.ReplicatorClassifier(part)
	for name, prog := range map[string]*ebpf.Program{
		"partition": progPart, "encryptor": progEnc, "replicator": progRep,
	} {
		if err := v.Verify(prog); err != nil {
			t.Errorf("%s classifier rejected: %v", name, err)
		}
	}
	if len(storfn.ClassifierSources()) < 4 {
		t.Error("classifier source inventory incomplete")
	}
}

// BenchmarkNotifyHop is one notify-path command end to end, QD1: an
// encrypted 4 KiB guest write through the router to the notify queue, the
// UIF's poll loop and handler, io_uring and the host block device to the
// NVMe device, and back through the NCQ. The driver is a continuation, like
// everything it drives, resubmitting one vm.Req from a callback event at
// each completion; it reports the scheduler events, run-token hand-offs and
// heap allocations one command costs.
func BenchmarkNotifyHop(b *testing.B) {
	h := newHost()
	defer h.env.Close()
	v, vc, disk := h.addVM(b, 0)
	setupEncryption(b, h, vc)
	base, pages, err := v.Mem.AllocBuffer(4096)
	if err != nil {
		b.Fatal(err)
	}
	const warm = 64 // free lists, rings, the event wheel's buckets and the backing store warm
	req := &vm.Req{Op: vm.OpWrite, Blocks: 8, Buf: base, BufPages: pages}
	var events, switches uint64
	done, i := false, 0
	var next func()
	next = func() {
		if i > 0 && !req.Status.OK() {
			b.Errorf("write %d: %v", i, req.Status)
			h.env.Stop()
			return
		}
		switch i {
		case warm:
			b.ReportAllocs()
			b.ResetTimer()
			events, switches = h.env.Dispatched(), h.env.Switches()
		case warm + b.N:
			b.StopTimer()
			events, switches = h.env.Dispatched()-events, h.env.Switches()-switches
			done = true
			h.env.Stop()
			return
		}
		i++
		req.Reset()
		req.LBA = uint64(i%4096) * 8
		disk.SubmitFunc(v.VCPU(0), req, func() {})
	}
	req.OnDone = func(*vm.Req) { h.env.After(0, next) }
	h.env.After(0, next)
	h.env.Run()
	if !done {
		b.Fatal("commands did not finish")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}
