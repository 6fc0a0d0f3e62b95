package nvmetro_test

import (
	"bytes"
	"strings"
	"testing"

	"nvmetro"
	"nvmetro/internal/ebpf"
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

func TestPublicAPIBaselines(t *testing.T) {
	for _, name := range []string{
		nvmetro.BaselineMDev, nvmetro.BaselinePassthrough, nvmetro.BaselineQEMU,
		nvmetro.BaselineVhostSCSI, nvmetro.BaselineSPDK,
	} {
		sys := nvmetro.NewSystem(nvmetro.Defaults())
		guest := sys.NewVM(1, 32<<20)
		disk, err := sys.AttachBaseline(name, guest, sys.WholeDisk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := sys.RunFIO(nvmetro.FIOConfig{
			Mode: nvmetro.RandRead, BlockSize: 512, QD: 4,
			Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
		}, disk.Targets(1))
		if res.Ops == 0 || res.Errors > 0 {
			t.Errorf("%s: ops=%d errors=%d", name, res.Ops, res.Errors)
		}
		sys.Close()
	}
	if _, err := (&struct{ *nvmetro.System }{nvmetro.NewSystem(nvmetro.Defaults())}).AttachBaseline("bogus", nil, nvmetro.Partition{}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
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

func TestPublicAPIExperimentRegistry(t *testing.T) {
	ids := nvmetro.Experiments()
	if len(ids) != 21 {
		t.Fatalf("experiments: %v", ids)
	}
	var sb strings.Builder
	if err := nvmetro.RunExperiment("table1", true, 1, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Classifier") {
		t.Fatal("table1 output missing")
	}
	if err := nvmetro.RunExperiment("nope", true, 1, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
