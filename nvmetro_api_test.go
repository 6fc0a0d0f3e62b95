package nvmetro_test

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"nvmetro"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/fio"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(2, 64<<20)
	disk, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	data := bytes.Repeat([]byte{0xfe, 0xed}, 1024)
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			t.Error(err)
			return
		}
		guest.Mem.WriteAt(data, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: 0, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), w); !st.OK() {
			t.Errorf("write: %v", st)
			return
		}
		got := make([]byte, len(data))
		r := &nvmetro.Req{Op: vm.OpRead, LBA: 0, Blocks: 4, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r); !st.OK() {
			t.Errorf("read: %v", st)
			return
		}
		guest.Mem.ReadAt(got, base)
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
	if !ok {
		t.Fatal("did not finish")
	}
}

func TestPublicAPIEncryptionAndFIO(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(2, 64<<20)
	key := bytes.Repeat([]byte{9}, 64)
	disk, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: key}})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandWrite, BlockSize: 4096, QD: 8,
		Warmup: nvmetro.Millisecond, Duration: 5 * nvmetro.Millisecond,
	}, disk.Targets(2))
	if res.Errors > 0 || res.Ops == 0 {
		t.Fatalf("encrypted fio: ops=%d errors=%d", res.Ops, res.Errors)
	}
}

// TestPublicAPIRunFIOMixed runs two differently configured groups over one
// shared window on volumes the facade attached: 512 B random reads on the
// fast path and 4 KiB random writes through the encryptor, each on its own
// partition. Each group completes work without errors at its own block
// size, and a second System built the same way returns identical results.
func TestPublicAPIRunFIOMixed(t *testing.T) {
	run := func() []nvmetro.FIOResult {
		sys := nvmetro.NewSystem(nvmetro.Defaults())
		defer sys.Close()
		parts := sys.CarveDisk(2)
		fast := sys.NewVM(1, 32<<20)
		enc := sys.NewVM(1, 32<<20)
		fv, err := sys.Attach(fast, parts[0], nvmetro.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := sys.Attach(enc, parts[1], nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: bytes.Repeat([]byte{5}, 64)}})
		if err != nil {
			t.Fatal(err)
		}
		window := func(cfg nvmetro.FIOConfig) nvmetro.FIOConfig {
			cfg.Warmup, cfg.Duration = nvmetro.Millisecond, 4*nvmetro.Millisecond
			return cfg
		}
		return fio.RunMixed(sys.Env, sys.Host.CPU, []fio.Group{
			{Name: "fast", Targets: fv.Targets(1), Cfg: window(nvmetro.FIOConfig{Mode: nvmetro.RandRead, BlockSize: 512, QD: 4})},
			{Name: "enc", Targets: ev.Targets(1), Cfg: window(nvmetro.FIOConfig{Mode: nvmetro.RandWrite, BlockSize: 4096, QD: 8})},
		})
	}
	res := run()
	if len(res) != 2 {
		t.Fatalf("%d results for 2 groups", len(res))
	}
	for i, bs := range []uint64{512, 4096} {
		r := res[i]
		if r.Ops == 0 || r.Errors != 0 {
			t.Fatalf("group %d: ops=%d errors=%d", i, r.Ops, r.Errors)
		}
		if r.Bytes != r.Ops*bs {
			t.Errorf("group %d: %d bytes in %d ops, want %d B each", i, r.Bytes, r.Ops, bs)
		}
	}
	again := run()
	for i := range res {
		a, b := res[i], again[i]
		if a.Ops != b.Ops || a.Bytes != b.Bytes || a.Errors != b.Errors || !a.Lat.Equal(b.Lat) ||
			!reflect.DeepEqual(a.CPU, b.CPU) {
			t.Errorf("group %d differs between identical systems: %+v vs %+v", i, a.Summary, b.Summary)
		}
	}
}

// TestPublicAPIBaselines runs fio over each of the paper's comparison
// stacks on a System's host.
func TestPublicAPIBaselines(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(baselines)) {
		sys := nvmetro.NewSystem(nvmetro.Defaults())
		guest := sys.NewVM(1, 32<<20)
		disk := baselines[name](sys.Host).Provision(guest, sys.WholeDisk())
		res := sys.RunFIO(nvmetro.FIOConfig{
			Mode: nvmetro.RandRead, BlockSize: 512, QD: 4,
			Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
		}, fio.Targets(guest, disk, 1))
		if res.Ops == 0 || res.Errors > 0 {
			t.Errorf("%s: ops=%d errors=%d", name, res.Ops, res.Errors)
		}
		sys.Close()
	}
}

// baselines are the paper's comparison stacks, by name. They are different
// systems, not NVMetro compositions: they provision through internal/stack,
// and no Spec applies.
var baselines = map[string]func(*stack.Host) stack.Solution{
	"mdev":        func(h *stack.Host) stack.Solution { return stack.NewMDev(h) },
	"passthrough": func(h *stack.Host) stack.Solution { return stack.NewPassthrough(h) },
	"qemu":        func(h *stack.Host) stack.Solution { return stack.NewQEMU(h) },
	"vhost-scsi":  func(h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) },
	"spdk":        func(h *stack.Host) stack.Solution { return stack.NewSPDK(h) },
}

func TestPublicAPIClassifierTools(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	part := sys.CarveDisk(2)[1]
	cfg := nvmetro.NewConfigMap(part)
	prog, err := nvmetro.AssembleClassifier(`
	mov r0, 0x410000
	exit
`, "trivial", map[string]ebpf.Map{"cfg": cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := nvmetro.VerifyClassifier(prog); err != nil {
		t.Fatal(err)
	}
	// A bad classifier must be rejected.
	bad, err := nvmetro.AssembleClassifier("ldxw r0, [r1+4096]\nexit", "bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nvmetro.VerifyClassifier(bad); err == nil {
		t.Fatal("verifier accepted an out-of-bounds classifier")
	}
}
