package core_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// rig is a single-host test bench: device, router, VMs with NVMetro disks.
type rig struct {
	env    *sim.Env
	cpu    *sim.CPU
	dev    *device.Device
	router *core.Router
	store  *device.MemStore
}

func newRig(workers int) *rig {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 16)
	store := device.NewMemStore(512)
	p := device.Default970EvoPlus()
	p.JitterPct, p.TailProb = 0, 0
	dev := device.New(env, p, store)
	var threads []*sim.Thread
	for i := 0; i < workers; i++ {
		threads = append(threads, cpu.ThreadOn(8+i, "router"))
	}
	return &rig{env: env, cpu: cpu, dev: dev, store: store,
		router: core.NewRouter(env, core.DefaultRouterCosts(), threads)}
}

// addVM attaches a VM over the given partition and returns its disk.
func (r *rig) addVM(id int, part device.Partition) (*vm.VM, *core.Controller, *vm.NVMeDisk) {
	v := vm.New(r.env, id, r.cpu, id, 1, 32<<20, vm.DefaultVirtCosts())
	vc := r.router.Attach(v, part)
	disk := vm.NewNVMeDisk(v, vc, 64, vm.DefaultDriverCosts())
	return v, vc, disk
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	r.env.Go("test", func(p *sim.Proc) { fn(p); ok = true; r.env.Stop() })
	r.env.RunUntil(sim.Time(60 * sim.Second))
	if !ok {
		t.Fatal("test did not finish in simulated time")
	}
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

func TestFastPathRoundTrip(t *testing.T) {
	r := newRig(1)
	v, _, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
	r.run(t, func(p *sim.Proc) {
		src := bytes.Repeat([]byte{0xaa, 0x55}, 2048)
		if st := doIO(p, v, disk, vm.OpWrite, 10, src); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		got := make([]byte, 4096)
		if st := doIO(p, v, disk, vm.OpRead, 10, got); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if !bytes.Equal(src, got) {
			t.Fatal("data mismatch through NVMetro fast path")
		}
	})
	if r.router.FastPath == 0 || r.router.Classifications == 0 {
		t.Fatal("router did not classify/route")
	}
}

func TestPartitionTranslationAndIsolation(t *testing.T) {
	r := newRig(1)
	parts := device.Carve(r.dev, 1, 4)
	v1, vc1, d1 := r.addVM(1, parts[1])
	v2, vc2, d2 := r.addVM(2, parts[2])
	p1, _ := storfn.PartitionClassifier(parts[1])
	p2, _ := storfn.PartitionClassifier(parts[2])
	if err := vc1.LoadClassifier(p1); err != nil {
		t.Fatal(err)
	}
	if err := vc2.LoadClassifier(p2); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		a := bytes.Repeat([]byte{0x11}, 512)
		b := bytes.Repeat([]byte{0x22}, 512)
		if st := doIO(p, v1, d1, vm.OpWrite, 5, a); !st.OK() {
			t.Fatalf("vm1 write: %v", st)
		}
		if st := doIO(p, v2, d2, vm.OpWrite, 5, b); !st.OK() {
			t.Fatalf("vm2 write: %v", st)
		}
		// Same guest LBA, different device locations.
		got := make([]byte, 512)
		if st := doIO(p, v1, d1, vm.OpRead, 5, got); !st.OK() || !bytes.Equal(got, a) {
			t.Fatalf("vm1 readback: %v", st)
		}
		if st := doIO(p, v2, d2, vm.OpRead, 5, got); !st.OK() || !bytes.Equal(got, b) {
			t.Fatalf("vm2 readback: %v", st)
		}
		// Device-level check: data landed at translated LBAs.
		r.store.ReadBlocks(parts[1].Start+5, got)
		if !bytes.Equal(got, a) {
			t.Fatal("vm1 data not at translated LBA")
		}
		// Out-of-partition access is rejected by the classifier.
		if st := doIO(p, v1, d1, vm.OpRead, parts[1].Blocks-1+2, make([]byte, 1024)); st != nvme.SCLBAOutOfRange {
			t.Fatalf("oob status: %v", st)
		}
	})
}

// fakeUIF polls the notify queues and completes everything successfully,
// recording what it saw.
type fakeUIF struct {
	nq     *core.NotifyQueues
	seen   []nvme.Command
	status nvme.Status
	delay  sim.Duration
}

func attachFakeUIF(env *sim.Env, vc *core.Controller) *fakeUIF {
	return attachFakeUIFDepth(env, vc, 256)
}

// attachFakeUIFDepth is attachFakeUIF with a caller-chosen notify queue
// depth; backpressure tests use shallow queues to force NSQ-full retries.
func attachFakeUIFDepth(env *sim.Env, vc *core.Controller, depth uint32) *fakeUIF {
	u := &fakeUIF{nq: vc.AttachUIF(depth)}
	wake := sim.NewCond(env)
	u.nq.OnNotify = func() { wake.Signal(nil) }
	env.Go("fake-uif", func(p *sim.Proc) {
		var cmd nvme.Command
		for {
			tag, ok := u.nq.Pop(&cmd)
			if !ok {
				wake.Wait()
				continue
			}
			u.seen = append(u.seen, cmd)
			if u.delay > 0 {
				p.Sleep(u.delay)
			}
			u.nq.Complete(tag, u.status)
		}
	})
	return u
}

func TestNotifyPathEncryptorRouting(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.EncryptorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	u := attachFakeUIF(r.env, vc)
	r.run(t, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{7}, 512)
		if st := doIO(p, v, disk, vm.OpWrite, 3, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		// Writes go only to the UIF (it persists ciphertext itself).
		if len(u.seen) != 1 || u.seen[0].Opcode() != nvme.OpWrite {
			t.Fatalf("UIF saw %v", u.seen)
		}
		devWrites := r.dev.Writes
		if devWrites != 0 {
			t.Fatalf("device saw %d writes; encryptor writes bypass HQ", devWrites)
		}
		// Reads hit the device first, then the UIF (decrypt hook).
		if st := doIO(p, v, disk, vm.OpRead, 3, data); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if len(u.seen) != 2 || u.seen[1].Opcode() != nvme.OpRead {
			t.Fatalf("UIF saw %v", u.seen)
		}
		if r.dev.Reads != 1 {
			t.Fatalf("device reads %d, want 1", r.dev.Reads)
		}
	})
	if r.router.NotifyPath != 2 {
		t.Fatalf("notify path count %d", r.router.NotifyPath)
	}
}

func TestMulticastSynchronousMirror(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.ReplicatorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	u := attachFakeUIF(r.env, vc)
	u.delay = 500 * sim.Microsecond // remote write is slow
	r.run(t, func(p *sim.Proc) {
		data := bytes.Repeat([]byte{9}, 512)
		start := p.Now()
		if st := doIO(p, v, disk, vm.OpWrite, 4, data); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		elapsed := p.Now().Sub(start)
		// Completion must wait for the slower (remote) leg.
		if elapsed < u.delay {
			t.Fatalf("write completed in %v, before remote leg (%v)", elapsed, u.delay)
		}
		if len(u.seen) != 1 || r.dev.Writes != 1 {
			t.Fatalf("uif=%d dev=%d; both legs must receive the write", len(u.seen), r.dev.Writes)
		}
		// Reads are served locally only.
		if st := doIO(p, v, disk, vm.OpRead, 4, data); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		if len(u.seen) != 1 {
			t.Fatal("read leaked to UIF")
		}
	})
}

func TestUIFErrorPropagates(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.EncryptorClassifier(part)
	vc.LoadClassifier(prog)
	u := attachFakeUIF(r.env, vc)
	u.status = nvme.SCInternal
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 0, make([]byte, 512)); st != nvme.SCInternal {
			t.Fatalf("status %v, want internal error from UIF", st)
		}
	})
}

func TestNotifyWithoutUIFFails(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.EncryptorClassifier(part)
	vc.LoadClassifier(prog)
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 0, make([]byte, 512)); st != nvme.SCInternal {
			t.Fatalf("status %v", st)
		}
	})
}

// fakeKernelTarget completes commands after a fixed delay.
type fakeKernelTarget struct {
	env   *sim.Env
	delay sim.Duration
	count int
}

func (k *fakeKernelTarget) Submit(cmd nvme.Command, mem nvme.Memory, done func(nvme.Status)) {
	k.count++
	k.env.After(k.delay, func() { done(nvme.SCSuccess) })
}

func TestKernelPath(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	kt := &fakeKernelTarget{env: r.env, delay: 30 * sim.Microsecond}
	vc.SetKernelTarget(kt)
	prog := ebpf.NewBuilder().
		MovImm64(ebpf.R0, core.ActSendKQ|core.ActWillCompleteKQ).
		Exit().MustProgram("kernel-only")
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 0, make([]byte, 512)); !st.OK() {
			t.Fatalf("kernel write: %v", st)
		}
	})
	if kt.count != 1 || r.router.KernelPath != 1 {
		t.Fatalf("kernel path not used: %d/%d", kt.count, r.router.KernelPath)
	}
}

// TestRestrictRejectsUntranslatedOOB: the router confines what classifiers
// produce. A verifier-accepted classifier that does not translate (a constant
// verdict is as wrong as mediation gets) routes the guest's LBAs as device
// LBAs; whichever path it picks and whatever the ranged opcode, a range
// outside the partition fails LBAOutOfRange and no backend sees it.
func TestRestrictRejectsUntranslatedOOB(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict uint64
	}{
		{"HQ", core.ActSendHQ | core.ActWillCompleteHQ},
		{"NQ", core.ActSendNQ | core.ActWillCompleteNQ},
		{"KQ", core.ActSendKQ | core.ActWillCompleteKQ},
		{"multicast", core.ActSendHQ | core.ActSendNQ | core.ActSendKQ |
			core.ActWillCompleteHQ | core.ActWillCompleteNQ | core.ActWillCompleteKQ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1)
			parts := device.Carve(r.dev, 1, 4)
			part := parts[1]
			v, vc, disk := r.addVM(0, part)
			prog := ebpf.NewBuilder().MovImm64(ebpf.R0, tc.verdict).Exit().MustProgram("untranslated")
			if err := vc.LoadClassifier(prog); err != nil {
				t.Fatal(err)
			}
			u := attachFakeUIF(r.env, vc)
			kt := &fakeKernelTarget{env: r.env, delay: 30 * sim.Microsecond}
			vc.SetKernelTarget(kt)
			guard := &recordingGuard{}
			vc.SetGuard(guard)
			r.run(t, func(p *sim.Proc) {
				base, pages, err := v.Mem.AllocBuffer(1024)
				if err != nil {
					panic(err)
				}
				for _, op := range []vm.Op{vm.OpRead, vm.OpWrite, vm.OpTrim} {
					for _, lba := range []uint64{0, part.Start - 1, part.Start + part.Blocks - 1, part.Start + part.Blocks, ^uint64(0)} {
						req := &vm.Req{Op: op, LBA: lba, Blocks: 2, Buf: base, BufPages: pages}
						if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); st != nvme.SCLBAOutOfRange {
							t.Errorf("%v at device LBA %#x: %v, want LBAOutOfRange", op, lba, st)
						}
					}
				}
				// The same classifier inside the partition is served.
				req := &vm.Req{Op: vm.OpWrite, LBA: part.Start + 8, Blocks: 2, Buf: base, BufPages: pages}
				if st := vm.SubmitAndWait(p, disk, v.VCPU(0), req); !st.OK() {
					t.Errorf("in-range write: %v", st)
				}
			})
			// sends is how many commands may reach the backend behind bit:
			// the one in-range write, if the verdict routes there at all.
			sends := func(bit uint64) int {
				if tc.verdict&bit != 0 {
					return 1
				}
				return 0
			}
			if len(u.seen) != sends(core.ActSendNQ) || kt.count != sends(core.ActSendKQ) ||
				int(r.dev.Reads+r.dev.Writes+r.dev.Others) != sends(core.ActSendHQ) {
				t.Errorf("backends saw uif=%d kernel=%d device=%d commands; only the in-range write may reach them",
					len(u.seen), kt.count, r.dev.Reads+r.dev.Writes+r.dev.Others)
			}
			if n := vc.Outstanding(); n != 0 {
				t.Errorf("%d commands outstanding", n)
			}
			// A refused write never happened: it leaves no protection info.
			if len(guard.stamped) != 1 || guard.stamped[0] != part.Start+8 {
				t.Errorf("guard stamped LBAs %#x, want only the in-range write's", guard.stamped)
			}
		})
	}
}

// recordingGuard is a BlockGuard that accepts everything and remembers what
// it was asked to stamp.
type recordingGuard struct{ stamped []uint64 }

func (g *recordingGuard) Stamp(lba uint64, _ []byte)   { g.stamped = append(g.stamped, lba) }
func (g *recordingGuard) StampZeroes(lba, _ uint64)    { g.stamped = append(g.stamped, lba) }
func (g *recordingGuard) Verify(uint64, []byte) bool   { return true }
func (g *recordingGuard) Quarantined(_, _ uint64) bool { return false }

func TestClassifierRejectedByVerifier(t *testing.T) {
	r := newRig(1)
	_, vc, _ := r.addVM(0, device.WholeNamespace(r.dev, 1))
	bad := ebpf.NewBuilder().
		Load(ebpf.SizeW, ebpf.R0, ebpf.R1, core.CtxSize). // out of ctx bounds
		Exit().MustProgram("bad")
	if err := vc.LoadClassifier(bad); err == nil {
		t.Fatal("verifier must reject out-of-bounds classifier")
	}
}

// TestClassifierRejectsWrappingCtxOffset: a ctx pointer moved within 8 bytes
// of 2^63 makes start+size wrap negative. The verifier used to accept the
// load, and the router's first guest command then panicked its worker
// slicing the ctx out of range. The classifier must be refused and the
// installed one keep serving.
func TestClassifierRejectsWrappingCtxOffset(t *testing.T) {
	r := newRig(1)
	v, vc, disk := r.addVM(0, device.WholeNamespace(r.dev, 1))
	bad := ebpf.NewBuilder().
		MovImm64(ebpf.R2, 0x7ffffffffffffffc).ALU(ebpf.ALUAdd, ebpf.R1, ebpf.R2).
		Load(ebpf.SizeDW, ebpf.R0, ebpf.R1, 0).
		Exit().MustProgram("wrap")
	if err := vc.LoadClassifier(bad); err == nil {
		t.Error("verifier accepted a ctx load at a wrapping offset")
	}
	r.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpRead, 0, make([]byte, 512)); !st.OK() {
			t.Fatalf("read after the refused load: %v", st)
		}
	})
}

func TestLiveClassifierSwap(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	u := attachFakeUIF(r.env, vc)
	r.run(t, func(p *sim.Proc) {
		// Phase 1: default classifier, fast path.
		if st := doIO(p, v, disk, vm.OpWrite, 0, make([]byte, 512)); !st.OK() {
			t.Fatal(st)
		}
		if len(u.seen) != 0 {
			t.Fatal("UIF used before swap")
		}
		// Phase 2: swap in the encryptor without restarting anything.
		prog, _ := storfn.EncryptorClassifier(part)
		if err := vc.LoadClassifier(prog); err != nil {
			t.Fatal(err)
		}
		if st := doIO(p, v, disk, vm.OpWrite, 0, make([]byte, 512)); !st.OK() {
			t.Fatal(st)
		}
		if len(u.seen) != 1 {
			t.Fatal("UIF not used after live swap")
		}
	})
}

func TestSharedWorkerManyVMs(t *testing.T) {
	r := newRig(1) // single worker serves all VMs (Fig. 5 setup)
	parts := device.Carve(r.dev, 1, 4)
	type gv struct {
		v    *vm.VM
		d    *vm.NVMeDisk
		done bool
	}
	var vms []*gv
	for i := 0; i < 4; i++ {
		v, vc, d := r.addVM(i, parts[i])
		prog, _ := storfn.PartitionClassifier(parts[i])
		if err := vc.LoadClassifier(prog); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, &gv{v: v, d: d})
	}
	for _, g := range vms {
		g := g
		r.env.Go("load", func(p *sim.Proc) {
			data := make([]byte, 512)
			for i := 0; i < 50; i++ {
				if st := doIO(p, g.v, g.d, vm.OpWrite, uint64(i), data); !st.OK() {
					t.Errorf("vm write: %v", st)
					break
				}
			}
			g.done = true
		})
	}
	r.env.RunUntil(sim.Time(5 * sim.Second))
	for i, g := range vms {
		if !g.done {
			t.Fatalf("vm %d starved under shared worker", i)
		}
	}
	r.env.Close()
}

func TestWorkerParksWhenIdle(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, _, disk := r.addVM(0, part)
	var busyDuring, busyIdle sim.Duration
	r.run(t, func(p *sim.Proc) {
		snap := r.cpu.Snapshot()
		for i := 0; i < 20; i++ {
			doIO(p, v, disk, vm.OpRead, uint64(i), make([]byte, 512))
		}
		busyDuring = r.cpu.Since(snap).ByTag["router"]
		snap = r.cpu.Snapshot()
		p.Sleep(10 * sim.Millisecond) // idle period
		busyIdle = r.cpu.Since(snap).ByTag["router"]
	})
	if busyDuring == 0 {
		t.Fatal("router burned no CPU under load")
	}
	if busyIdle > busyDuring/10 {
		t.Fatalf("router burned %v while idle (vs %v under load); parking broken", busyIdle, busyDuring)
	}
}

func TestRouterLatencyFastPath(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, _, disk := r.addVM(0, part)
	r.run(t, func(p *sim.Proc) {
		var total sim.Duration
		const n = 50
		data := make([]byte, 512)
		for i := 0; i < n; i++ {
			start := p.Now()
			if st := doIO(p, v, disk, vm.OpRead, uint64(i), data); !st.OK() {
				t.Fatal(st)
			}
			total += p.Now().Sub(start)
		}
		avg := total / n
		// Device ~80us + router overhead a few us: expect 80-92us.
		if avg < 78*sim.Microsecond || avg > 95*sim.Microsecond {
			t.Fatalf("QD1 fast-path latency %v", avg)
		}
	})
}
