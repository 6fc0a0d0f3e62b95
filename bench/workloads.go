package main

import (
	"encoding/binary"

	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
)

// workload is one benchmark input: a system under test plus the closed-loop
// fio groups that drive it. Run length is a fixed virtual window, so the op
// count is identical on every commit with the same model.
type workload struct {
	name string
	// virtPerSec is the virtual window that takes one second of host time
	// in the measured call, calibrated on the commit that added the
	// benchmark; a child's measured window is virtPerSec × its seconds.
	virtPerSec sim.Duration
	build      func(b *builder) *rig
}

// rig is a built system ready for fio.RunMixed.
type rig struct {
	env    *sim.Env
	host   *stack.Host
	groups []fio.Group
	ctrls  []*core.Controller

	// Layer handles the counters are read from after the measured call.
	routers []*core.Router
	cachers []*storfn.Cacher
	images  []*stack.GoldenImage
	clones  []*cow.Store
	domains []*integrity.Domain
}

// builder carries what the workloads' build functions share: the seed, the
// calibration overrides of -selfcheck, and the tracer that times the calls
// into each layer (nil in the untraced run).
type builder struct {
	seed   int64
	pollVQ sim.Duration // 0 keeps the calibrated router poll period
	tr     *tracer
}

// newHost builds the simulation environment and the testbed machine.
func (b *builder) newHost(cores, guestCores int, backing device.Store) (*sim.Env, *stack.Host) {
	sp := b.tr.begin("stack.new_host")
	defer sp.end()
	p := stack.DefaultParams()
	if b.pollVQ > 0 {
		p.Router.PollVQ = b.pollVQ
	}
	env := sim.New(b.seed)
	return env, stack.NewHost(env, cores, guestCores, p, backing)
}

var workloads = []workload{
	{
		name: "fast_qd1",
		// 1 VM x 1 vCPU x QD1 512B random reads on the routed fast path: host
		// time is ~300 empty 250ns poll rounds per I/O, so idle-poll and
		// DES-kernel changes show here and per-command changes do not
		virtPerSec: 2500 * sim.Millisecond,
		build:      func(b *builder) *rig { return buildFast(b, 1, 1) },
	},
	{
		name: "fast_sat",
		// 1 VM x 4 vCPUs x QD128 512B random reads: the router worker never
		// idles, so SQE decode, classifier, HSQ dispatch, device queueing and
		// VCQ post dominate and poll elision predicts no change
		virtPerSec: 230 * sim.Millisecond,
		build:      func(b *builder) *rig { return buildFast(b, 4, 128) },
	},
	{
		name: "uif_mix",
		// 3 VMs x 2 vCPUs x QD16 4KiB: encrypted 50/50, replicated writes,
		// cached zipf 80/20 under one RunFIOMixed: the only notify-path
		// workload, payload bytes are touched and writes run beside reads
		virtPerSec: 36 * sim.Millisecond,
		build:      buildUIFMix,
	},
	{
		name: "fleet_boot",
		// 256 single-vCPU QD4 tenants cloned from one golden image on 16 shards
		// with QoS and integrity, boot profile: shard placement, MPSC inboxes,
		// QoS, promotion, cow, content cache and PI verify do the work
		virtPerSec: 95 * sim.Millisecond,
		build:      buildFleetBoot,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildFast is the paper's main evaluation shape: one VM on its own router
// worker with the default routed classifier over the whole drive.
func buildFast(b *builder, vcpus, qd int) *rig {
	env, h := b.newHost(12, 4, device.NewStore(device.BackingMem, 512))
	r := &rig{env: env, host: h}
	sp := b.tr.begin("vm.new")
	v := h.NewVM(vcpus, 64<<20)
	sp.end()
	sp = b.tr.begin("stack.attach")
	sol := stack.NewNVMetro(h)
	disk := sol.Provision(v, device.WholeNamespace(h.Dev, 1))
	sp.end()
	vc := sol.ControllerFor(v)
	r.ctrls = append(r.ctrls, vc)
	r.routers = append(r.routers, vc.Router())
	var targets []fio.Target
	for i := 0; i < vcpus; i++ {
		targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i)})
	}
	r.groups = []fio.Group{{Name: "fast", Targets: targets,
		Cfg: fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: qd}}}
	return r
}

// uifWorkSet is each uif_mix job's addressed extent: small enough that the
// MemStore, the block cache and RSS plateau inside the warm-up call.
const uifWorkSet = 16 << 20

// buildUIFMix attaches the three storage functions to thirds of one disk.
func buildUIFMix(b *builder) *rig {
	env, h := b.newHost(16, 6, device.NewStore(device.BackingMem, 512))
	r := &rig{env: env, host: h}
	parts := device.Carve(h.Dev, 1, 3)
	remote := stack.NewRemoteHost(env, 4, h.Params.Device, device.NewStore(device.BackingMem, 512))
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	sols := []*stack.NVMetro{
		stack.NewNVMetro(h).WithEncryption(key, false),
		stack.NewNVMetro(h).WithReplication(remote.Secondary()),
		stack.NewNVMetro(h).WithCache(storfn.DefaultCacheParams()),
	}
	cfgs := []fio.Config{
		{Mode: fio.RandRW, BlockSize: 4096, QD: 16, WorkSet: uifWorkSet},
		{Mode: fio.RandWrite, BlockSize: 4096, QD: 16, WorkSet: uifWorkSet},
		{Mode: fio.RandRW, BlockSize: 4096, QD: 16, WorkSet: uifWorkSet, Zipf: 1.2, WritePct: 20},
	}
	names := []string{"enc", "repl", "cache"}
	for i, sol := range sols {
		sp := b.tr.begin("vm.new")
		v := h.NewVM(2, 64<<20)
		sp.end()
		sp = b.tr.begin("stack.attach")
		disk := sol.Provision(v, parts[i])
		sp.end()
		vc := sol.ControllerFor(v)
		r.ctrls = append(r.ctrls, vc)
		r.routers = append(r.routers, vc.Router())
		if c := sol.CacherFor(v); c != nil {
			r.cachers = append(r.cachers, c)
		}
		r.groups = append(r.groups, fio.Group{Name: names[i], Cfg: cfgs[i], Targets: []fio.Target{
			{Disk: disk, VM: v, VCPU: v.VCPU(0)},
			{Disk: disk, VM: v, VCPU: v.VCPU(1)},
		}})
	}
	return r
}

const (
	fleetTenants     = 256
	fleetShards      = 16
	fleetImageBlocks = 8192 // 4 MiB golden image at 512 B blocks
	fleetCacheChunks = 256
)

// goldenPayload fills the image with per-chunk-distinct content so the
// sealed image dedups nothing against itself.
func goldenPayload(blocks uint64) []byte {
	buf := make([]byte, blocks*512)
	for i := range buf {
		buf[i] = byte(i*131 + i>>9)
	}
	const chunkBytes = 64 * 512
	for c := 0; c*chunkBytes < len(buf); c++ {
		binary.LittleEndian.PutUint64(buf[c*chunkBytes:], uint64(c)^0x9e3779b97f4a7c15)
	}
	return buf
}

// buildFleetBoot is the boot storm through the sharded fleet.
func buildFleetBoot(b *builder) *rig {
	env, h := b.newHost(fleetTenants+8+fleetShards, fleetTenants, device.NullStore{})
	r := &rig{env: env, host: h}

	sp := b.tr.begin("cow.golden_image")
	img := stack.NewGoldenImage(h, fleetImageBlocks, fleetCacheChunks)
	img.Master().WriteBlocks(0, goldenPayload(fleetImageBlocks))
	img.Seal()
	sp.end()
	r.images = append(r.images, img)

	sol := stack.NewNVMetroSharded(h, fleetShards).
		WithQoS(qos.Config{}).
		WithIntegrity(integrity.DefaultScrubConfig()).
		WithSnapshots(img)
	targets := make([]fio.Target, fleetTenants)
	for i := range targets {
		sp := b.tr.begin("vm.new")
		v := h.NewVM(1, 16<<20)
		sp.end()
		sp = b.tr.begin("stack.attach")
		disk := sol.CloneFrom(v)
		sp.end()
		r.ctrls = append(r.ctrls, sol.ControllerFor(v))
		r.clones = append(r.clones, sol.CloneStoreFor(v))
		r.domains = append(r.domains, sol.IntegrityDomainFor(v))
		targets[i] = fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(0)}
	}
	r.routers = append(r.routers, sol.Fleet().Router())
	cfg := fio.BootProfile(0, 0)
	cfg.WorkSet = fleetImageBlocks * 512
	// One command in flight per tenant. At the profile's QD4, seed 2 fails 4
	// of 275k I/Os with SCGuardCheck (pi.guest.bad=32 on one tenant), most
	// likely two in-flight writes of one tenant to the same hot block applied
	// in the other order than they were stamped. No operation may fail here.
	cfg.QD = 1
	r.groups = []fio.Group{{Name: "boot", Targets: targets, Cfg: cfg}}
	return r
}
