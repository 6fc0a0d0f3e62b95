package core_test

import (
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// TestHookChainBounded: a verified classifier whose every verdict sends and
// hooks again would route one guest command forever, and one that hooks two
// paths at once would double its legs on every completion. The router bounds
// a request's classifier invocations: past the bound the guest gets
// SCInternal, the router counts one classifier fault, nothing more is
// dispatched, and the books balance once the legs in flight come back.
func TestHookChainBounded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict uint64
	}{
		{"chain", core.ActSendHQ | core.ActHookHCQ},
		{"fanout", core.ActSendHQ | core.ActHookHCQ | core.ActSendKQ | core.ActHookKCQ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1)
			v, vc, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
			vc.SetKernelTarget(&fakeKernelDev{env: r.env, delay: 30 * sim.Microsecond})
			prog := ebpf.NewBuilder().MovImm64(ebpf.R0, tc.verdict).Exit().MustProgram("hook-" + tc.name)
			if err := vc.LoadClassifier(prog); err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Proc) {
				base, pages, _ := v.Mem.AllocBuffer(512)
				done, completed := sim.NewCond(r.env), false
				req := &vm.Req{Op: vm.OpRead, LBA: 7, Blocks: 1, Buf: base, BufPages: pages,
					OnDone: func(*vm.Req) { completed = true; done.Signal(nil) }}
				disk.SubmitFunc(v.VCPU(0), req, func() {})
				deadline := p.Now().Add(10 * sim.Millisecond)
				for !completed && p.Now() < deadline {
					done.WaitTimeout(sim.Millisecond)
				}
				if !completed {
					t.Fatalf("read not completed after %d classifications", r.router.Classifications)
				}
				if req.Status != nvme.SCInternal {
					t.Errorf("status %v, want SCInternal", req.Status)
				}
				p.Sleep(sim.Millisecond) // the legs still in flight come back
			})
			if r.router.ClassifierFaults != 1 {
				t.Errorf("ClassifierFaults = %d, want 1", r.router.ClassifierFaults)
			}
			if r.router.Classifications != core.MaxClassifications {
				t.Errorf("%d classifications, want %d", r.router.Classifications, core.MaxClassifications)
			}
			if vc.Outstanding() != 0 {
				t.Errorf("%d requests outstanding at quiesce", vc.Outstanding())
			}
			if err := core.CheckRecords(vc); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestClassifierFaultsCounted: a verdict that sends nowhere, and one whose
// only leg is fire-and-forget so no leg completes the request, both fail the
// guest with SCInternal rather than wedging it, and each counts one
// classifier fault per request, as a faulting or runaway classifier does.
func TestClassifierFaultsCounted(t *testing.T) {
	const reqs = 3
	for _, tc := range []struct {
		name    string
		verdict uint64
	}{
		{"no-send", 0},
		{"fire-and-forget", core.ActSendHQ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1)
			v, vc, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
			prog := ebpf.NewBuilder().MovImm64(ebpf.R0, tc.verdict).Exit().MustProgram("fault-" + tc.name)
			if err := vc.LoadClassifier(prog); err != nil {
				t.Fatal(err)
			}
			r.run(t, func(p *sim.Proc) {
				for i := 0; i < reqs; i++ {
					base, pages, _ := v.Mem.AllocBuffer(512)
					req := &vm.Req{Op: vm.OpRead, LBA: uint64(7 + i), Blocks: 1, Buf: base, BufPages: pages}
					if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); st != nvme.SCInternal {
						t.Errorf("request %d: status %v, want SCInternal", i, st)
					}
				}
				p.Sleep(sim.Millisecond)
			})
			if r.router.ClassifierFaults != reqs {
				t.Errorf("ClassifierFaults = %d for %d requests, want %d", r.router.ClassifierFaults, reqs, reqs)
			}
			if vc.Outstanding() != 0 {
				t.Errorf("%d requests outstanding at quiesce", vc.Outstanding())
			}
			if err := core.CheckRecords(vc); err != nil {
				t.Error(err)
			}
		})
	}
}
