package nvmetro_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nvmetro"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

var testKey = bytes.Repeat([]byte{9}, 64)

// TestAttachSurface: the composition of a volume lives in Spec, so *System
// grows fields there, never entry points.
func TestAttachSurface(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(&nvmetro.System{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Attach") {
			got = append(got, name)
		}
	}
	if want := []string{"Attach", "AttachBaseline"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("*System Attach* methods = %v, want %v", got, want)
	}
}

// TestAttachCustomClassifierThroughCtrl loads a classifier — the paper's
// headline feature — through the handle a plain Attach returns, and sees
// its verdict on guest commands.
func TestAttachCustomClassifierThroughCtrl(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(1, 32<<20)
	vol, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if vol.Ctrl == nil {
		t.Fatal("Volume.Ctrl is nil for a plain NVMetro attach")
	}
	// Reads take the fast path, everything else completes AccessDenied.
	prog, err := nvmetro.AssembleClassifier(`
	ldxb  r3, [r1+32]       ; opcode
	jeq   r3, 2, read
	mov   r0, 0x2000186     ; COMPLETE | AccessDenied
	exit
read:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
`, "read-only", map[string]ebpf.Map{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.Ctrl.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	ok := sys.Run(nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(512)
		if err != nil {
			t.Error(err)
			return
		}
		do := func(op vm.Op) nvme.Status {
			return vm.SubmitAndWait(p, vol.Disk, guest.VCPU(0), &nvmetro.Req{Op: op, LBA: 8, Blocks: 1, Buf: base, BufPages: pages})
		}
		if st := do(vm.OpRead); !st.OK() {
			t.Errorf("read under the read-only classifier: %v", st)
		}
		if st := do(vm.OpWrite); st.OK() {
			t.Error("write completed OK under the read-only classifier")
		}
	})
	if !ok {
		t.Fatal("did not finish")
	}
}

// TestAttachRejectsInvalidSpec: a caller-supplied value that cannot work is
// an error from Attach, never a panic from the stack below it.
func TestAttachRejectsInvalidSpec(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest, whole := sys.NewVM(1, 1<<20), sys.WholeDisk()
	remote := sys.NewRemoteHost(2)
	img := sys.NewGoldenImage(1024, 0)
	enc := &nvmetro.Encryption{Key: testKey}
	goodPol, badPol := nvmetro.DefaultSupervisePolicy(), nvmetro.DefaultSupervisePolicy()
	badPol.HeartbeatInterval = 0
	goodCache, badCache := nvmetro.DefaultCacheParams(), nvmetro.DefaultCacheParams()
	badCache.MaxBuckets = 0

	for _, tc := range []struct {
		name string
		part nvmetro.Partition
		spec nvmetro.Spec
	}{
		{"short XTS key", whole, nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: make([]byte, 10)}}},
		{"invalid supervise policy", whole, nvmetro.Spec{Encrypt: enc, Supervise: &badPol}},
		{"invalid scrub config", whole, nvmetro.Spec{Integrity: &nvmetro.ScrubConfig{}}},
		{"invalid cache params", whole, nvmetro.Spec{Cache: &badCache}},
		{"two storage functions", whole, nvmetro.Spec{Encrypt: enc, Replicate: remote}},
		{"three storage functions", whole, nvmetro.Spec{Encrypt: enc, Replicate: remote, Cache: &goodCache}},
		{"SGX supervised", whole, nvmetro.Spec{Encrypt: &nvmetro.Encryption{Key: testKey, SGX: true}, Supervise: &goodPol}},
		{"supervision without a function", whole, nvmetro.Spec{Supervise: &goodPol}},
		{"clone over a partition", whole, nvmetro.Spec{CloneOf: img}},
		{"no partition", nvmetro.Partition{}, nvmetro.Spec{}},
		{"QoS contract without a pool", whole, nvmetro.Spec{QoS: &nvmetro.QoSTenantConfig{Weight: 2}}},
		{"QoS contract on a pool without QoS", whole, nvmetro.Spec{Pool: sys.NewNVMetroShared(1), QoS: &nvmetro.QoSTenantConfig{Weight: 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Attach panicked: %v", r)
				}
			}()
			if vol, err := sys.Attach(guest, tc.part, tc.spec); err == nil || vol != nil {
				t.Fatalf("Attach = %v, %v; want an error", vol, err)
			}
		})
	}
}

// handles is which of a volume's handles are non-nil, in Volume's order:
// Ctrl, Cacher, Supervisor, Domain, Scrubber, Resyncer, Store.
type handles [7]bool

func volumeHandles(d *nvmetro.Volume) handles {
	return handles{d.Ctrl != nil, d.Cacher() != nil, d.Supervisor != nil, d.Domain != nil,
		d.Scrubber != nil, d.Resyncer != nil, d.Store != nil}
}

func builderHandles(sol *stack.NVMetro, v *nvmetro.VM) handles {
	return handles{sol.ControllerFor(v) != nil, sol.CacherFor(v) != nil, sol.SupervisorFor(v) != nil,
		sol.IntegrityDomainFor(v) != nil, sol.ScrubberFor(v) != nil, sol.ResyncerFor(v) != nil,
		sol.CloneStoreFor(v) != nil}
}

// TestAttachMatchesStackBuilder: for the Spec equivalent of every attach
// entry point the facade used to have, Attach builds the same system as the
// internal/stack builder chain that entry point ran (and that the
// experiments and the benchmark still use) — same handles, and a same-seed
// fio run that is indistinguishable op for op.
func TestAttachMatchesStackBuilder(t *testing.T) {
	const imgBlocks = 4096
	pol, scrub, cache := nvmetro.DefaultSupervisePolicy(), nvmetro.DefaultScrubConfig(), nvmetro.DefaultCacheParams()
	contract := nvmetro.QoSTenantConfig{Weight: 3, IOPS: 50000, BurstOps: 32}
	enc, sgx := &nvmetro.Encryption{Key: testKey}, &nvmetro.Encryption{Key: testKey, SGX: true}

	// prep completes a Spec with what must be built on the System itself
	// (remote host, golden image, pool); both sides run it, so both Systems
	// are set up identically before the attach under test.
	prep := func(sys *nvmetro.System, sp nvmetro.Spec, replicate, clone bool, pool func(*nvmetro.System) *nvmetro.Pool) nvmetro.Spec {
		if replicate {
			sp.Replicate = sys.NewRemoteHost(4)
		}
		if clone {
			sp.CloneOf = sys.NewGoldenImage(imgBlocks, 64)
			sp.CloneOf.Master().WriteBlocks(0, bytes.Repeat([]byte{0x5a, 0xa5}, imgBlocks*512/2))
			sp.CloneOf.Seal()
		}
		if pool != nil {
			sp.Pool = pool(sys)
		}
		return sp
	}
	for _, v := range []struct {
		name             string
		spec             nvmetro.Spec
		replicate, clone bool
		pool             func(*nvmetro.System) *nvmetro.Pool
		// build is the builder chain of the deleted entry point; sp is the
		// prepared Spec, for the remote host and image it names.
		build func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro
	}{
		{name: "NVMetro",
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h) }},
		{name: "Encrypted", spec: nvmetro.Spec{Encrypt: enc},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithEncryption(testKey, false)
			}},
		{name: "EncryptedSGX", spec: nvmetro.Spec{Encrypt: sgx},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithEncryption(testKey, true)
			}},
		{name: "Replicated", replicate: true,
			build: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithReplication(sp.Replicate.Secondary())
			}},
		{name: "Cached", spec: nvmetro.Spec{Cache: &cache},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h).WithCache(cache) }},
		{name: "EncryptedSupervised", spec: nvmetro.Spec{Encrypt: enc, Supervise: &pol},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithEncryption(testKey, false).WithSupervision(pol)
			}},
		{name: "CachedSupervised", spec: nvmetro.Spec{Cache: &cache, Supervise: &pol},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithCache(cache).WithSupervision(pol)
			}},
		{name: "ReplicatedSupervised", spec: nvmetro.Spec{Supervise: &pol}, replicate: true,
			build: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithReplication(sp.Replicate.Secondary()).WithSupervision(pol)
			}},
		{name: "Protected", spec: nvmetro.Spec{Integrity: &scrub},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h).WithIntegrity(scrub) }},
		{name: "ReplicatedProtected", spec: nvmetro.Spec{Integrity: &scrub}, replicate: true,
			build: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithReplication(sp.Replicate.Secondary()).WithIntegrity(scrub)
			}},
		{name: "Cloned", clone: true,
			build: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithSnapshots(sp.CloneOf)
			}},
		{name: "ClonedProtected", spec: nvmetro.Spec{Integrity: &scrub}, clone: true,
			build: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithSnapshots(sp.CloneOf).WithIntegrity(scrub)
			}},
		{name: "SharedQoS", spec: nvmetro.Spec{QoS: &contract},
			pool: func(sys *nvmetro.System) *nvmetro.Pool {
				return sys.NewNVMetroShared(1).WithQoS(nvmetro.QoSConfig{})
			},
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetroShared(h, 1).WithQoS(nvmetro.QoSConfig{})
			}},
		{name: "Sharded",
			pool: func(sys *nvmetro.System) *nvmetro.Pool { return sys.NewNVMetroSharded(2) },
			build: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetroSharded(h, 2)
			}},
	} {
		v := v
		// Two single-vCPU VMs on the two halves of the disk (or two clones):
		// enough to make a pool shared and a partition classifier load.
		run := func(attach func(sys *nvmetro.System, sp nvmetro.Spec, guest *nvmetro.VM, part nvmetro.Partition) (nvmetro.Disk, handles)) (nvmetro.FIOResult, handles) {
			sys := nvmetro.NewSystem(nvmetro.Defaults())
			defer sys.Close()
			sp := prep(sys, v.spec, v.replicate, v.clone, v.pool)
			parts := sys.CarveDisk(2)
			if v.clone {
				parts = make([]nvmetro.Partition, 2)
			}
			var targets []nvmetro.FIOTarget
			var all handles
			for i, part := range parts {
				guest := sys.NewVM(1, 32<<20)
				disk, h := attach(sys, sp, guest, part)
				if i > 0 && h != all {
					t.Errorf("volumes of one spec differ in handles: %v, %v", all, h)
				}
				all = h
				targets = append(targets, nvmetro.FIOTarget{Disk: disk, VM: guest, VCPU: guest.VCPU(0)})
			}
			return sys.RunFIO(nvmetro.FIOConfig{
				Mode: nvmetro.RandRW, BlockSize: 4096, QD: 8, WorkSet: imgBlocks * 512 / 2,
				Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
			}, targets), all
		}
		t.Run(v.name, func(t *testing.T) {
			fr, fh := run(func(sys *nvmetro.System, sp nvmetro.Spec, guest *nvmetro.VM, part nvmetro.Partition) (nvmetro.Disk, handles) {
				vol, err := sys.Attach(guest, part, sp)
				if err != nil {
					t.Fatal(err)
				}
				if sp.Pool != nil && vol.Ctrl.Router() != sp.Pool.Router() {
					t.Error("pooled volume is not on its pool's router")
				}
				return vol.Disk, volumeHandles(vol)
			})
			var sol *stack.NVMetro
			br, bh := run(func(sys *nvmetro.System, sp nvmetro.Spec, guest *nvmetro.VM, part nvmetro.Partition) (nvmetro.Disk, handles) {
				if sol == nil || sp.Pool == nil {
					sol = v.build(sys.Host, sp) // the old entry points built one solution per attach, pools excepted
				}
				var disk nvmetro.Disk
				if v.clone {
					disk = sol.CloneFrom(guest)
				} else {
					disk = sol.Provision(guest, part)
				}
				if sp.QoS != nil {
					sol.SetQoS(guest, *sp.QoS)
				}
				return disk, builderHandles(sol, guest)
			})
			if fh != bh {
				t.Errorf("non-nil handles (Ctrl, Cacher, Supervisor, Domain, Scrubber, Resyncer, Store): facade %v, builder %v", fh, bh)
			}
			if !fh[0] {
				t.Error("Volume.Ctrl is nil")
			}
			if fr.Ops == 0 || fr.Ops != br.Ops || fr.Errors != br.Errors || !fr.Lat.Equal(br.Lat) {
				t.Errorf("fio diverged: facade ops=%d errors=%d p99=%d, builder ops=%d errors=%d p99=%d",
					fr.Ops, fr.Errors, fr.Lat.P99(), br.Ops, br.Errors, br.Lat.P99())
			}
		})
	}
}
