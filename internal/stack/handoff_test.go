package stack_test

import (
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
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

// kernelRig is the kernel path: a native classifier sends every command of a
// closed-loop QD32 4 KiB random read/write job down the host block layer,
// an NVMe block device over the same namespace.
func kernelRig() handOffRig {
	env := sim.New(1)
	h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
	v := h.NewVM(1, 64<<20)
	part := device.WholeNamespace(h.Dev, 1)
	vol := stack.NewNVMetro(h).Attach(v, part, stack.Spec{})
	vol.Ctrl.SetNativeClassifier(func([]byte) uint64 { return core.ActSendKQ | core.ActWillCompleteKQ })
	vol.Ctrl.SetKernelTarget(blockdev.NewNVMeBlockDev(env, part, h.CPU, 11, h.Params.Block))
	return handOffRig{env, h, []fio.Group{{Targets: []fio.Target{{Disk: vol.Disk, VM: v, VCPU: v.VCPU(0)}},
		Cfg: fio.Config{Mode: fio.RandRW, BlockSize: 4096, QD: 32}}}}
}

// baselineRig is a rate-limited QD8 4 KiB random read/write job at 20 kIOPS
// on one VM of the baseline mk builds.
func baselineRig(mk func(h *stack.Host) stack.Solution) func() handOffRig {
	return func() handOffRig {
		env := sim.New(1)
		h := stack.NewHost(env, 12, 4, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
		v := h.NewVM(1, 64<<20)
		disk := mk(h).Provision(v, device.WholeNamespace(h.Dev, 1))
		return handOffRig{env, h, []fio.Group{{Targets: []fio.Target{{Disk: disk, VM: v, VCPU: v.VCPU(0)}},
			Cfg: fio.Config{Mode: fio.RandRW, BlockSize: 4096, QD: 8, RateIOPS: 20000}}}}
	}
}

// notifyRig is the notify path: three single-vCPU VMs on thirds of one disk,
// behind the encryption, replication (over NVMe-oF) and cache storage
// functions, each a closed-loop QD16 job of 4 KiB I/O as in uif_mix, and a
// cache of cacheBlocks 512-byte lines.
func notifyRig(cacheBlocks uint64) handOffRig {
	env := sim.New(1)
	h := stack.NewHost(env, 16, 6, stack.DefaultParams(), device.NewStore(device.BackingMem, 512))
	remote := stack.NewRemoteHost(env, 4, h.Params.Device, device.NewStore(device.BackingMem, 512))
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	const workSet = 4 << 20
	cachep := storfn.DefaultCacheParams()
	cachep.Cache.CapacityBlocks = cacheBlocks
	sols := []*stack.NVMetro{
		stack.NewNVMetro(h).WithEncryption(key, false),
		stack.NewNVMetro(h).WithReplication(remote.Secondary()),
		stack.NewNVMetro(h).WithCache(cachep),
	}
	cfgs := []fio.Config{
		{Mode: fio.RandRW, BlockSize: 4096, QD: 16, WorkSet: workSet},
		{Mode: fio.RandWrite, BlockSize: 4096, QD: 16, WorkSet: workSet},
		{Mode: fio.RandRW, BlockSize: 4096, QD: 16, WorkSet: workSet, Zipf: 1.2, WritePct: 20},
	}
	var groups []fio.Group
	for i, part := range device.Carve(h.Dev, 1, 3) {
		v := h.NewVM(1, 64<<20)
		groups = append(groups, fio.Group{Cfg: cfgs[i], Targets: []fio.Target{{Disk: sols[i].Provision(v, part), VM: v, VCPU: v.VCPU(0)}}})
	}
	return handOffRig{env, h, groups}
}

// TestNoHandOffOnCommandPath is the command path's hand-off gate, in counts
// that do not depend on the host's timing: over a measured fio call, after a
// warm-up call as the benchmark makes one, no process may be spawned and the
// run token may never be handed to a process. The routed topologies' router
// workers, fio jobs, guest drivers, device and interrupt handlers are all
// continuations; on the notify path the UIF poll loops and the NVMe-oF target
// are reactors too, and the kernel path's router submits its bios from the
// worker itself. The baselines' loops — the MDev poller, QEMU's iothreads,
// the vhost-scsi worker, kcryptd under it and the SPDK reactors — are
// reactors as well, so their rate-limited rows are held to none too.
func TestNoHandOffOnCommandPath(t *testing.T) {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	for _, tc := range []struct {
		name   string
		rig    func() handOffRig
		window sim.Duration
	}{
		{"routed QD128", routedRig, 2 * sim.Millisecond},
		{"sharded clone fleet", fleetRig, 2 * sim.Millisecond},
		{"kernel path", kernelRig, 2 * sim.Millisecond},
		{"notify path", func() handOffRig { return notifyRig(storfn.DefaultCacheParams().Cache.CapacityBlocks) }, 2 * sim.Millisecond},
		{"MDev rate-limited", baselineRig(func(h *stack.Host) stack.Solution { return stack.NewMDev(h) }), 20 * sim.Millisecond},
		{"QEMU rate-limited", baselineRig(func(h *stack.Host) stack.Solution { return stack.NewQEMU(h) }), 20 * sim.Millisecond},
		{"vhost-scsi rate-limited", baselineRig(func(h *stack.Host) stack.Solution { return stack.NewVhostSCSI(h) }), 20 * sim.Millisecond},
		{"vhost-scsi+dm-crypt rate-limited", baselineRig(func(h *stack.Host) stack.Solution { return stack.NewVhostDMCrypt(h, key) }), 20 * sim.Millisecond},
		{"SPDK rate-limited", baselineRig(func(h *stack.Host) stack.Solution { return stack.NewSPDK(h) }), 20 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig()
			defer r.env.Close()
			run := func(d sim.Duration) (ios, errs uint64) {
				groups := append([]fio.Group(nil), r.groups...)
				groups[0].Cfg.Duration = d
				for _, res := range fio.RunMixed(r.env, r.host.CPU, groups) {
					ios += res.Ops + res.Errors
					errs += res.Errors
				}
				return ios, errs
			}
			run(tc.window / 10)
			switches, spawns := r.env.Switches(), r.env.Spawns()
			ios, errs := run(tc.window)
			switches, spawns = r.env.Switches()-switches, r.env.Spawns()-spawns
			if ios < 100 || errs != 0 {
				t.Fatalf("%d I/Os in the measured call, %d failed", ios, errs)
			}
			if spawns != 0 || switches != 0 {
				t.Errorf("%d I/Os took %d hand-offs and %d spawns; want none", ios, switches, spawns)
			}
		})
	}
}

// TestDaemonsSpawnNothing is the background daemons' hand-off gate: on one
// volume with a mirror, a supervised replicator and integrity, from sim.New
// through the attach and a window in which the scrubber runs continuously,
// a fabric outage sends the mirror through a resync and the UIF crashes
// and is failed over and restarted, no process may be spawned and the run
// token may never be handed to one. The scrubber, the resync engine and
// the watchdog are timers and condition waiters, and fio drives the guest.
func TestDaemonsSpawnNothing(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	runDaemonsRig(t, env, device.NewMemStore(512))
	if env.Spawns() != 0 || env.Switches() != 0 {
		t.Errorf("%d spawns and %d hand-offs; want none", env.Spawns(), env.Switches())
	}
}

// runDaemonsRig builds TestDaemonsSpawnNothing's volume, mirrored onto a
// remote host over remote, and runs its guest phase and settle window.
func runDaemonsRig(t *testing.T, env *sim.Env, remote device.Store) *daemonRig {
	t.Helper()
	pol := supervise.DefaultPolicy()
	pol.HeartbeatInterval, pol.StallThreshold = 50*sim.Microsecond, 300*sim.Microsecond
	scrub := integrity.ScrubConfig{Rate: 400e6, Interval: sim.Millisecond}
	spec := stack.Spec{
		Replicate: mirrorTo(env, remote, [2]sim.Duration{2 * sim.Millisecond, sim.Millisecond}),
		Supervise: &pol,
		Integrity: &scrub,
	}
	r := newDaemonRig(env, device.NewMemStore(512), spec, nil)
	r.vol.Supervisor.SetFaultInjector(fault.NewPlan(1).WithUIFCrash(0.005, 1).Injector("uif-replicator"))
	r.vol.Scrubber.Start()
	res := r.run(fio.RandRW, 8*sim.Millisecond)
	r.settle(4 * sim.Millisecond)
	scr, rs, sup := r.vol.Scrubber, r.vol.Resyncer, r.vol.Supervisor
	if res.Ops < 100 || scr.Passes == 0 || rs.ResyncedBlocks == 0 || sup.Restarts == 0 {
		t.Fatalf("%d I/Os, %d scrub passes, %d blocks resynced, %d restarts; want all", res.Ops, scr.Passes, rs.ResyncedBlocks, sup.Restarts)
	}
	return r
}

// TestScrubChecksReplicaAfterFailover: once the supervisor has restarted the
// replicator's UIF, the scrubber reads the replica through the live
// attachment generation, so a block corrupted in the remote store is found
// and handed to resync without a scrub read failing.
func TestScrubChecksReplicaAfterFailover(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	remote := device.NewMemStore(512)
	r := runDaemonsRig(t, env, remote)
	scr := r.vol.Scrubber
	bad, errs, passes := scr.ReplicaBad, scr.Errors, scr.Passes
	lba := r.vol.Domain.StampedRanges()[0].LBA
	blk := make([]byte, 512)
	remote.ReadBlocks(lba, blk)
	blk[0] ^= 0xff
	remote.WriteBlocks(lba, blk)
	// The pass in flight may be past lba: wait for the one after it.
	for i := 0; scr.Passes < passes+2 && i < 100; i++ {
		env.RunUntil(env.Now().Add(sim.Millisecond))
	}
	if scr.Passes < passes+2 {
		t.Fatalf("%d scrub passes in 100 ms; want 2", scr.Passes-passes)
	}
	if scr.ReplicaBad == bad || scr.Errors != errs {
		t.Errorf("replica_bad %d -> %d, errors %d -> %d; want the corrupt replica block found and no new errors", bad, scr.ReplicaBad, errs, scr.Errors)
	}
}
