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
	"nvmetro/internal/storfn"
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
	if want := []string{"Attach"}; !reflect.DeepEqual(got, want) {
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

func volumeHandles(d *stack.Volume) handles {
	return handles{d.Ctrl != nil, d.Cacher() != nil, d.Supervisor != nil, d.Domain != nil,
		d.Scrubber != nil, d.Resyncer != nil, d.Store != nil}
}

// accessorHandles is what the *For lookups of a With* chain show of v's
// volume; the handles they do not reach stay false.
func accessorHandles(sol *stack.NVMetro, v *nvmetro.VM) handles {
	return handles{0: sol.ControllerFor(v) != nil, 1: sol.CacherFor(v) != nil,
		3: sol.IntegrityDomainFor(v) != nil, 6: sol.CloneStoreFor(v) != nil}
}

// TestAttachMatchesStackBuilder: for the Spec equivalent of every attach
// entry point the facade used to have, System.Attach builds the same system
// as internal/stack does without the facade — same handles, and a same-seed
// fio run that is indistinguishable op for op. Where a With* chain declares
// the volume (the path the experiments' solution lineups and the benchmark
// take), the stack side is that chain and Provision/CloneFrom; the
// supervised and QoS-contract volumes, which no chain declares, attach the
// equivalent stack.Spec through stack.NVMetro.Attach.
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
	newNVMetro := func(h *stack.Host) *stack.NVMetro { return stack.NewNVMetro(h) }
	for _, v := range []struct {
		name             string
		spec             nvmetro.Spec
		replicate, clone bool
		pool             func(*nvmetro.System) *nvmetro.Pool
		// chain is the With* chain of the deleted entry point; sp is the
		// prepared Spec, for the remote host and image it names.
		chain func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro
		// Without a chain, the volume attaches stackSpec(sp) to sol(h).
		sol       func(h *stack.Host) *stack.NVMetro
		stackSpec func(sp nvmetro.Spec) stack.Spec
	}{
		{name: "NVMetro", chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h) }},
		{name: "Encrypted", spec: nvmetro.Spec{Encrypt: enc},
			chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithEncryption(testKey, false)
			}},
		{name: "EncryptedSGX", spec: nvmetro.Spec{Encrypt: sgx},
			chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithEncryption(testKey, true)
			}},
		{name: "Replicated", replicate: true,
			chain: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithReplication(sp.Replicate.Secondary())
			}},
		{name: "Cached", spec: nvmetro.Spec{Cache: &cache},
			chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h).WithCache(cache) }},
		{name: "EncryptedSupervised", spec: nvmetro.Spec{Encrypt: enc, Supervise: &pol}, sol: newNVMetro,
			stackSpec: func(nvmetro.Spec) stack.Spec {
				return stack.Spec{Encrypt: &stack.Encryption{Key: testKey}, Supervise: &pol}
			}},
		{name: "CachedSupervised", spec: nvmetro.Spec{Cache: &cache, Supervise: &pol}, sol: newNVMetro,
			stackSpec: func(nvmetro.Spec) stack.Spec { return stack.Spec{Cache: &cache, Supervise: &pol} }},
		{name: "ReplicatedSupervised", spec: nvmetro.Spec{Supervise: &pol}, replicate: true, sol: newNVMetro,
			stackSpec: func(sp nvmetro.Spec) stack.Spec {
				return stack.Spec{Replicate: sp.Replicate.Secondary(), Supervise: &pol}
			}},
		{name: "Protected", spec: nvmetro.Spec{Integrity: &scrub},
			chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro { return stack.NewNVMetro(h).WithIntegrity(scrub) }},
		{name: "ReplicatedProtected", spec: nvmetro.Spec{Integrity: &scrub}, replicate: true,
			chain: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithReplication(sp.Replicate.Secondary()).WithIntegrity(scrub)
			}},
		{name: "Cloned", clone: true,
			chain: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithSnapshots(sp.CloneOf)
			}},
		{name: "ClonedProtected", spec: nvmetro.Spec{Integrity: &scrub}, clone: true,
			chain: func(h *stack.Host, sp nvmetro.Spec) *stack.NVMetro {
				return stack.NewNVMetro(h).WithSnapshots(sp.CloneOf).WithIntegrity(scrub)
			}},
		{name: "SharedQoS", spec: nvmetro.Spec{QoS: &contract},
			pool: func(sys *nvmetro.System) *nvmetro.Pool {
				return sys.NewNVMetroShared(1).WithQoS(nvmetro.QoSConfig{})
			},
			sol: func(h *stack.Host) *stack.NVMetro {
				return stack.NewNVMetroShared(h, 1).WithQoS(nvmetro.QoSConfig{})
			},
			stackSpec: func(nvmetro.Spec) stack.Spec { return stack.Spec{QoS: &contract} }},
		{name: "Sharded",
			pool: func(sys *nvmetro.System) *nvmetro.Pool { return sys.NewNVMetroSharded(2) },
			chain: func(h *stack.Host, _ nvmetro.Spec) *stack.NVMetro {
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
				fresh := sol == nil || sp.Pool == nil // one solution per attach, pools excepted
				if v.chain == nil {
					if fresh {
						sol = v.sol(sys.Host)
					}
					vol := sol.Attach(guest, part, v.stackSpec(sp))
					return vol.Disk, volumeHandles(vol)
				}
				if fresh {
					sol = v.chain(sys.Host, sp)
				}
				var disk nvmetro.Disk
				if v.clone {
					disk = sol.CloneFrom(guest)
				} else {
					disk = sol.Provision(guest, part)
				}
				return disk, accessorHandles(sol, guest)
			})
			if !fh[0] {
				t.Error("Volume.Ctrl is nil")
			}
			// Every mirror drains after an outage, integrity or not.
			if v.replicate && !fh[5] {
				t.Error("Volume.Resyncer is nil for a Spec{Replicate} volume")
			}
			if v.chain != nil {
				fh[2], fh[4], fh[5] = false, false, false // handles no accessor reaches
			}
			if fh != bh {
				t.Errorf("non-nil handles (Ctrl, Cacher, Supervisor, Domain, Scrubber, Resyncer, Store): facade %v, stack %v", fh, bh)
			}
			if fr.Ops == 0 || fr.Ops != br.Ops || fr.Errors != br.Errors || !fr.Lat.Equal(br.Lat) {
				t.Errorf("fio diverged: facade ops=%d errors=%d p99=%d, stack ops=%d errors=%d p99=%d",
					fr.Ops, fr.Errors, fr.Lat.P99(), br.Ops, br.Errors, br.Lat.P99())
			}
		})
	}
}

// TestScrubReplicaDivergenceResyncs: a replica block that rots behind a
// good primary is found by a scrub pass, handed to the resync engine and
// rewritten from the primary, and the mirror ends in sync.
func TestScrubReplicaDivergenceResyncs(t *testing.T) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	remote := sys.NewRemoteHost(2)
	secondary := remote.Dev.Namespace(1).Store.(*nvmetro.MemStore)
	scrub := nvmetro.DefaultScrubConfig()
	guest := sys.NewVM(1, 32<<20)
	vol, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{Replicate: remote, Integrity: &scrub})
	if err != nil {
		t.Fatal(err)
	}
	bs := int(sys.DeviceUnderTest().Params().BlockSize())
	data := bytes.Repeat([]byte{0x5a}, 8*bs)
	const lba, rotten = 64, 66
	finished := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		base, pages, err := guest.Mem.AllocBuffer(uint32(len(data)))
		if err != nil {
			t.Error(err)
			return
		}
		guest.Mem.WriteAt(data, base)
		w := &nvmetro.Req{Op: vm.OpWrite, LBA: lba, Blocks: 8, Buf: base, BufPages: pages}
		if st := vm.SubmitAndWait(p, vol.Disk, guest.VCPU(0), w); !st.OK() {
			t.Errorf("write: %v", st)
			return
		}
		secondary.WriteBlocks(rotten, bytes.Repeat([]byte{0xee}, bs))
		vol.Scrubber.Trigger()
		p.Sleep(nvmetro.Second)
	})
	if !finished {
		t.Fatal("did not finish")
	}
	if vol.Scrubber.Passes != 1 || vol.Scrubber.ReplicaBad != 1 {
		t.Fatalf("passes %d, replica-bad blocks %d; want 1 and 1", vol.Scrubber.Passes, vol.Scrubber.ReplicaBad)
	}
	got := make([]byte, bs)
	secondary.ReadBlocks(rotten, got)
	if !bytes.Equal(got, data[:bs]) {
		t.Errorf("replica block %d not repaired: % x...", rotten, got[:8])
	}
	if st := vol.Resyncer.State(); st != storfn.StateInSync {
		t.Errorf("mirror %v, want in sync", st)
	}
}
