package stack_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
)

// handOffRig is a topology driven by fio.
type handOffRig struct {
	env    *sim.Env
	host   *stack.Host
	groups []fio.Group
}

// routedRig is one VM with 4 vCPUs on its own router worker, each vCPU a
// closed-loop QD128 job of 512 B random reads.
func routedRig() handOffRig {
	env := sim.New(1)
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
	v := h.NewVM(4, 64<<20)
	disk := stack.NewNVMetro(h).Provision(v, device.WholeNamespace(h.Dev, 1))
	var targets []fio.Target
	for i := 0; i < 4; i++ {
		targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i)})
	}
	return handOffRig{env, h, []fio.Group{{Targets: targets, Cfg: fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 128}}}}
}

// fleetRig is 16 single-vCPU tenants cloned from one golden image on a
// 4-shard fleet with QoS and integrity, running the boot profile.
func fleetRig() handOffRig {
	const tenants, blocks = 16, 2048
	env := sim.New(1)
	h := stack.NewHost(env, tenants+12, tenants, stack.DefaultParams(), device.NullStore{})
	img := stack.NewGoldenImage(h, blocks, 64)
	img.Master().WriteBlocks(0, make([]byte, blocks*512))
	img.Seal()
	sol := stack.NewNVMetroSharded(h, 4).WithQoS(qos.Config{}).WithIntegrity(integrity.DefaultScrubConfig()).WithSnapshots(img)
	var targets []fio.Target
	for i := 0; i < tenants; i++ {
		v := h.NewVM(1, 16<<20)
		targets = append(targets, fio.Target{Disk: sol.CloneFrom(v), VM: v, VCPU: v.VCPU(0)})
	}
	cfg := fio.BootProfile(0, 0)
	cfg.WorkSet, cfg.QD = blocks*512, 1
	return handOffRig{env, h, []fio.Group{{Targets: targets, Cfg: cfg}}}
}

// qemuRig is a rate-limited job on virtio-blk under QEMU, whose iothreads are
// processes by design.
func qemuRig() handOffRig {
	env := sim.New(1)
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
	v := h.NewVM(1, 64<<20)
	disk := stack.NewQEMU(h).Provision(v, device.WholeNamespace(h.Dev, 1))
	return handOffRig{env, h, []fio.Group{{Targets: []fio.Target{{Disk: disk, VM: v, VCPU: v.VCPU(0)}},
		Cfg: fio.Config{Mode: fio.RandRW, BlockSize: 4096, QD: 8, RateIOPS: 20000}}}}
}

// TestNoHandOffOnCommandPath is the command path's hand-off gate, in counts
// that do not depend on the host's timing: over a measured fio call, after a
// warm-up call as the benchmark makes one, no process may be spawned, and on
// the routed topologies — whose router workers, fio jobs, guest drivers,
// device and interrupt handlers are all continuations — the run token may
// never be handed to a process. QEMU's iothreads are processes by design, so
// its rate-limited run is held to the hand-offs they take: 3356 (4692 while
// the fio job and the virtio submission were processes too, 1 spawn).
func TestNoHandOffOnCommandPath(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rig      func() handOffRig
		window   sim.Duration
		switches uint64
	}{
		{"routed QD128", routedRig, 2 * sim.Millisecond, 0},
		{"sharded clone fleet", fleetRig, 2 * sim.Millisecond, 0},
		{"QEMU rate-limited", qemuRig, 20 * sim.Millisecond, 3356},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig()
			defer r.env.Close()
			run := func(d sim.Duration) uint64 {
				groups := append([]fio.Group(nil), r.groups...)
				groups[0].Cfg.Duration = d
				var ios uint64
				for _, res := range fio.RunMixed(r.env, r.host.CPU, groups) {
					ios += res.Ops + res.Errors
				}
				return ios
			}
			run(tc.window / 10)
			switches, spawns := r.env.Switches(), r.env.Spawns()
			ios := run(tc.window)
			switches, spawns = r.env.Switches()-switches, r.env.Spawns()-spawns
			if ios < 100 {
				t.Fatalf("only %d I/Os in the measured call", ios)
			}
			if spawns != 0 || switches > tc.switches {
				t.Errorf("%d I/Os took %d hand-offs and %d spawns; want at most %d and none", ios, switches, spawns, tc.switches)
			}
		})
	}
}
