package stack_test

import (
	"runtime"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// routedPackages are the packages a warm routed or promoted command must not
// allocate in: the router and what it drives per command.
var routedPackages = []string{"core", "shard", "qos", "integrity", "cow", "device", "nvme", "vm", "guestmem"}

// warmAllocs drives every target at depth qd — each slot's vm.Req
// resubmitted from a callback event at its completion, reading or writing as
// write says for the n-th command — and returns the heap objects the
// measured commands allocated, by allocating function, once warm commands
// have run.
func warmAllocs(t *testing.T, env *sim.Env, targets []fio.Target, qd, blocks, extent, warm, measured int, write func(n int) bool) map[string]int64 {
	t.Helper()
	var issued int
	var before map[string]int64
	for ti, tg := range targets {
		for k := 0; k < qd; k++ {
			base, pages, err := tg.VM.Mem.AllocBuffer(uint32(blocks * 512))
			if err != nil {
				t.Fatal(err)
			}
			req := &vm.Req{Blocks: uint32(blocks), Buf: base, BufPages: pages}
			n := ti*qd + k
			submit := func() {
				if issued == warm {
					runtime.MemProfileRate = 1
					before = allocsByFunc()
				}
				if issued == warm+measured {
					env.Stop()
					return
				}
				issued++
				n += len(targets) * qd
				req.Reset()
				req.Op = vm.OpRead
				if write(n) {
					req.Op = vm.OpWrite
				}
				req.LBA = uint64(n*7919%(extent/blocks)) * uint64(blocks)
				tg.Disk.SubmitFunc(tg.VCPU, req, func() {})
			}
			req.OnDone = func(*vm.Req) {
				if !req.Status.OK() {
					t.Errorf("%s at %d: %v", req.Op, req.LBA, req.Status)
				}
				env.After(0, submit)
			}
			env.After(0, submit)
		}
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	env.Run()
	after := allocsByFunc()
	if issued != warm+measured || before == nil {
		t.Fatalf("%d commands issued; want %d", issued, warm+measured)
	}
	out := map[string]int64{}
	for fn, n := range after {
		if n -= before[fn]; n != 0 {
			out[fn] = n
		}
	}
	return out
}

// TestRoutedPathAllocs is the routed and promoted paths' allocation gate, in
// the shapes of the benchmark's fast_sat and fleet_boot workloads: once warm,
// a command allocates nothing in routedPackages. The router takes each
// command's record from its queue's recycled ones, and its host tags, VCQ
// entries and effects live in reused slices. fast_sat is one 4-vCPU VM on the
// default routed classifier doing 512 B random reads; fleet_boot is clones of
// a golden image on a sharded, promoted router with QoS and integrity, doing
// 4 KiB reads and writes. A clone's first write to a chunk copies it, which
// allocates, and the slices the router, the device and the guard reuse grow to
// their high-water marks: the fleet's warm-up is long enough to break every
// chunk it writes and reach those marks. The DES kernel's own books are
// outside these packages. The race detector's instrumentation allocates, so
// the gate is not checked under -race.
func TestRoutedPathAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation gates are not checked under the race detector")
	}
	t.Run("fast_sat", func(t *testing.T) {
		env := sim.New(1)
		defer env.Close()
		h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
		v := h.NewVM(4, 64<<20)
		disk := stack.NewNVMetro(h).Provision(v, device.WholeNamespace(h.Dev, 1))
		var targets []fio.Target
		for i := 0; i < 4; i++ {
			targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i)})
		}
		got := warmAllocs(t, env, targets, 32, 1, 1<<16, 20000, 5000, func(int) bool { return false })
		gate(t, got, 5000)
	})
	t.Run("fleet_boot", func(t *testing.T) {
		const tenants, imageBlocks = 16, 2048
		env := sim.New(1)
		defer env.Close()
		h := stack.NewHost(env, tenants+8+4, tenants, stack.DefaultParams(), device.NullStore{})
		img := stack.NewGoldenImage(h, imageBlocks, 64)
		img.Seal()
		sol := stack.NewNVMetroSharded(h, 4).
			WithQoS(qos.Config{}).
			WithIntegrity(integrity.DefaultScrubConfig()).
			WithSnapshots(img)
		var targets []fio.Target
		for i := 0; i < tenants; i++ {
			v := h.NewVM(1, 16<<20)
			targets = append(targets, fio.Target{Disk: sol.CloneFrom(v), VM: v, VCPU: v.VCPU(0)})
		}
		got := warmAllocs(t, env, targets, 2, 8, imageBlocks, 40000, 20000, func(n int) bool { return n%4 == 0 })
		for _, tg := range targets {
			if !sol.ControllerFor(tg.VM).Promoted() {
				t.Fatal("a fleet tenant was not promoted")
			}
		}
		gate(t, got, 20000)
	})
}

// gate fails for every allocating function of routedPackages in got.
func gate(t *testing.T, got map[string]int64, measured int) {
	t.Helper()
	for fn, n := range got {
		if contains(routedPackages, funcPackage(fn)) {
			t.Errorf("%d warm commands allocated %d objects in %s", measured, n, fn)
		} else {
			t.Logf("outside the gate: %d objects in %s", n, fn)
		}
	}
}
