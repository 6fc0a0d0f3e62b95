// Package nvmetro is the public API of the NVMetro reproduction: a flexible
// NVMe request-routing framework for virtual machines (Tu Dinh Ngoc et al.,
// IPDPS 2024), built as a deterministic full-system simulation.
//
// The package wraps the internal subsystems behind a small facade:
//
//	sys := nvmetro.NewSystem(nvmetro.Defaults())
//	vm1 := sys.NewVM(4, 64<<20)
//	vol, err := sys.Attach(vm1, sys.WholeDisk(), nvmetro.Spec{})
//	res := sys.RunFIO(nvmetro.FIOConfig{...}, vol.Targets(1))
//
// A volume is declared, not assembled: Spec names the storage function
// (transparent encryption, live replication, host cache), supervision,
// integrity, the golden image to clone and the worker pool to join, and
// Attach resolves the whole declaration in one call. Custom eBPF
// classifiers can be assembled from text and loaded live through
// Volume.Ctrl, and every table/figure of the paper's evaluation can be
// regenerated through RunExperiment.
package nvmetro

import (
	"errors"
	"fmt"
	"io"

	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/harness"
	"nvmetro/internal/integrity"
	"nvmetro/internal/metrics"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
	"nvmetro/internal/vm"
	"nvmetro/internal/xts"
)

// Re-exported core types. The aliases make the internal packages' documented
// types reachable through the public API.
type (
	// Env is the discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated process (guest program, host thread, ...).
	Proc = sim.Proc
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
	// Time is an absolute virtual timestamp.
	Time = sim.Time

	// VM is a virtual machine with guest memory and vCPUs.
	VM = vm.VM
	// Disk is the guest-visible asynchronous block device.
	Disk = vm.Disk
	// Req is one guest block request.
	Req = vm.Req

	// Controller is NVMetro's virtual NVMe controller for one VM.
	Controller = core.Controller
	// Router is the NVMetro I/O router.
	Router = core.Router
	// NotifyQueues is the notify-path endpoint consumed by UIFs.
	NotifyQueues = core.NotifyQueues

	// Program is a verified-or-not eBPF classifier program.
	Program = ebpf.Program
	// ClassifierBuilder assembles classifiers from Go.
	ClassifierBuilder = ebpf.Builder

	// Device is the simulated NVMe SSD.
	Device = device.Device
	// Partition is an LBA window of a namespace.
	Partition = device.Partition

	// FIOConfig configures a fio-equivalent run.
	FIOConfig = fio.Config
	// FIOResult carries throughput, latency and CPU results.
	FIOResult = fio.Result
	// FIOTarget places one fio job.
	FIOTarget = fio.Target
	// FIOGroup pairs targets with their own workload for mixed runs.
	FIOGroup = fio.Group

	// QoSConfig tunes the router's WFQ arbiter.
	QoSConfig = qos.Config
	// QoSTenantConfig is one tenant's contract (weight, rate caps, SLO).
	QoSTenantConfig = qos.TenantConfig
	// QoSTenantSnapshot is a point-in-time view of one tenant's QoS state.
	QoSTenantSnapshot = qos.TenantSnapshot
	// ShardInfo is a point-in-time view of one shard's tenant assignment,
	// promotion state and inbox depths.
	ShardInfo = core.ShardInfo

	// SupervisePolicy tunes the UIF watchdog and restart behaviour.
	SupervisePolicy = supervise.Policy
	// Supervisor watches one storage function's UIF attachment: detection,
	// reconciliation, degraded routing and supervised restarts.
	Supervisor = supervise.Supervisor
	// FaultPlan is a deterministic per-site fault schedule (media errors,
	// fabric outages, UIF crashes/wedges).
	FaultPlan = fault.Plan
	// FaultInjector is one site's armed view of a FaultPlan.
	FaultInjector = fault.Injector
	// CounterSet is an insertion-ordered bag of named counters.
	CounterSet = metrics.CounterSet

	// Store is the simulated SSD's backing byte store.
	Store = device.Store
	// MemStore is the content-keeping backing store (required for
	// data-integrity work).
	MemStore = device.MemStore
	// ScrubConfig tunes the background integrity scrubber (pacing and the
	// pause between continuous passes).
	ScrubConfig = integrity.ScrubConfig
	// Scrubber is the background scrub engine of a protected attachment.
	Scrubber = integrity.Scrubber
	// IntegrityDomain holds per-block protection info (CRC + generation)
	// and the quarantine set for one protected attachment.
	IntegrityDomain = integrity.Domain
	// CorruptingStore wraps a Store with deterministic silent-corruption
	// injection (bit rot, torn/misdirected/lost writes).
	CorruptingStore = integrity.CorruptingStore
	// Resyncer drives dirty-region replica resynchronization.
	Resyncer = storfn.Resyncer

	// GoldenImage is a sealed master image plus the content-addressed chunk
	// index its clones share (snapshot/clone layer).
	GoldenImage = stack.GoldenImage
	// CowStore is one clone's writable copy-on-write view over the golden
	// image's layer chain.
	CowStore = cow.Store
	// CowLayer is one immutable sealed snapshot delta.
	CowLayer = cow.Layer
)

// Convenient duration units (virtual time).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// fio workload modes.
const (
	RandRead  = fio.RandRead
	RandWrite = fio.RandWrite
	RandRW    = fio.RandRW
	SeqRead   = fio.SeqRead
	SeqWrite  = fio.SeqWrite
	SeqRW     = fio.SeqRW
)

// Config configures a System.
type Config struct {
	// Seed makes the whole simulation deterministic.
	Seed int64
	// Cores is the host core count (the paper's server has 12).
	Cores int
	// GuestCores are reserved for vCPUs.
	GuestCores int
	// Backing selects how the simulated SSD stores data: BackingMem keeps
	// full contents (required for data-integrity work), BackingNull is the
	// cheapest for pure benchmarking.
	Backing device.BackingMode
	// Store, when non-nil, overrides Backing with an explicit backing store
	// — e.g. a CorruptingStore for silent-corruption experiments.
	Store Store
	// Params exposes every calibration constant.
	Params stack.Params
}

// Defaults returns the calibrated testbed configuration.
func Defaults() Config {
	return Config{
		Seed:       1,
		Cores:      12,
		GuestCores: 4,
		Backing:    device.BackingMem,
		Params:     stack.DefaultParams(),
	}
}

// System is a complete simulated testbed: host machine, NVMe device and
// the NVMetro router, ready to attach VMs and storage functions.
type System struct {
	Env  *sim.Env
	Host *stack.Host
	cfg  Config
}

// NewSystem builds a testbed.
func NewSystem(cfg Config) *System {
	env := sim.New(cfg.Seed)
	backing := cfg.Store
	if backing == nil {
		backing = device.NewStore(cfg.Backing, cfg.Params.Device.BlockSize())
	}
	h := stack.NewHost(env, cfg.Cores, cfg.GuestCores, cfg.Params, backing)
	return &System{Env: env, Host: h, cfg: cfg}
}

// Close releases all simulated processes.
func (s *System) Close() { s.Env.Close() }

// DeviceUnderTest returns the host's NVMe device.
func (s *System) DeviceUnderTest() *Device { return s.Host.Dev }

// WholeDisk returns a partition covering the device's first namespace.
func (s *System) WholeDisk() Partition { return device.WholeNamespace(s.Host.Dev, 1) }

// CarveDisk splits the namespace into n equal partitions.
func (s *System) CarveDisk(n int) []Partition { return device.Carve(s.Host.Dev, 1, n) }

// NewVM creates a VM with the given vCPU count and memory size.
func (s *System) NewVM(vcpus int, memBytes uint64) *VM {
	return s.Host.NewVM(vcpus, memBytes)
}

// Encryption selects the transparent XTS-AES encryption storage function.
type Encryption struct {
	// Key is the 256- or 512-bit XTS key (two AES keys).
	Key []byte
	// SGX runs the cipher in the enclave-backed UIF variant.
	SGX bool
}

// Spec declares what one NVMetro volume is made of; the zero Spec is a
// plain routed disk running the default fast-path classifier
// (partition-confining when part is a true partition). Every field
// composes with every other unless its comment says otherwise, and Attach
// reports an invalid declaration as an error before building anything.
type Spec struct {
	// The storage function (classifier + UIF): at most one of the three.
	//
	// Encrypt stores ciphertext: writes are encrypted and reads decrypted in
	// the UIF, on-disk format compatible with dm-crypt.
	Encrypt *Encryption
	// Replicate mirrors writes synchronously to the remote host; reads stay
	// local.
	Replicate *RemoteHost
	// Cache steers hot reads to a caching UIF (an eBPF classifier counts
	// per-bucket read heat) while every write passes through the UIF's
	// invalidation window, so cached blocks can never go stale.
	Cache *CacheParams

	// Supervise runs the storage function's UIF under a watchdog: a crashed
	// or wedged UIF is detected, routing degrades the way the function
	// declares safe (encryption fail-stops, the cache is bypassed, the
	// mirror goes primary-only with dirty tracking) and the UIF restarts
	// under backoff. Needs a storage function; the SGX encryptor has no
	// recovery policy and cannot be supervised.
	Supervise *SupervisePolicy
	// Integrity adds end-to-end block protection info: writes are stamped at
	// the mediation point, reads verified at every trust boundary, and a
	// background Scrubber cross-checks stored content — repairing from the
	// replica when Replicate is set, quarantining what it cannot repair.
	// Under Encrypt only the guest boundary is guarded.
	Integrity *ScrubConfig
	// CloneOf provisions the volume over a fresh namespace cloned from the
	// golden image instead of over a partition (pass the zero Partition).
	// The clone copies no data: reads resolve through the image's shared
	// layer chain, the first write to a chunk breaks that chunk private.
	CloneOf *GoldenImage

	// Pool attaches the volume to a shared set of router workers instead of
	// giving it a worker of its own.
	Pool *Pool
	// QoS is the volume's contract with its pool's arbiter (weight, rate
	// caps, SLO); needs a Pool created WithQoS.
	QoS *QoSTenantConfig
}

// validate reports the first reason spec cannot be attached over part.
func (spec Spec) validate(part Partition) error {
	functions := 0
	if e := spec.Encrypt; e != nil {
		functions++
		if _, err := xts.New(e.Key); err != nil {
			return err
		}
		if e.SGX && spec.Supervise != nil {
			return errors.New("the SGX encryptor cannot be supervised")
		}
	}
	if spec.Replicate != nil {
		functions++
	}
	if spec.Cache != nil {
		functions++
		if err := spec.Cache.Validate(); err != nil {
			return err
		}
	}
	if functions > 1 {
		return errors.New("more than one storage function")
	}
	if spec.Supervise != nil {
		if functions == 0 {
			return errors.New("Supervise without a storage function")
		}
		if err := spec.Supervise.Validate(); err != nil {
			return err
		}
	}
	if spec.Integrity != nil {
		if err := spec.Integrity.Validate(); err != nil {
			return err
		}
	}
	if spec.CloneOf != nil && part != (Partition{}) {
		return errors.New("CloneOf provisions its own namespace: pass the zero Partition")
	}
	if spec.CloneOf == nil && part.Dev == nil {
		return errors.New("no partition")
	}
	if spec.QoS != nil && (spec.Pool == nil || !spec.Pool.qos) {
		return errors.New("a QoS contract needs a Pool created WithQoS")
	}
	return nil
}

// Volume is one attached disk with every handle its Spec produced. Handles
// of features the Spec left out are nil.
type Volume struct {
	VM   *VM
	Disk Disk
	// Ctrl is the volume's virtual NVMe controller — the control-plane
	// handle for loading classifiers and attaching UIFs live. Set for every
	// Attach; nil only for AttachBaseline's comparison stacks.
	Ctrl *Controller

	Supervisor *Supervisor      // Spec.Supervise
	Domain     *IntegrityDomain // Spec.Integrity
	Scrubber   *Scrubber        // Spec.Integrity, except under Encrypt
	Resyncer   *Resyncer        // Spec.Integrity with Spec.Replicate
	Store      *CowStore        // Spec.CloneOf: the clone's CoW store

	sol *stack.NVMetro
}

// Cacher returns the cache UIF of a Spec.Cache volume (hit/miss statistics,
// the cache itself, the classifier's heat map), nil otherwise. Under
// supervision it is the current generation: a restart replaces it.
func (d *Volume) Cacher() *Cacher {
	if d.sol == nil {
		return nil
	}
	return d.sol.CacherFor(d.VM)
}

// Targets builds fio job placements on the first n vCPUs.
func (d *Volume) Targets(n int) []FIOTarget {
	var out []FIOTarget
	for i := 0; i < n; i++ {
		out = append(out, FIOTarget{Disk: d.Disk, VM: d.VM, VCPU: d.VM.VCPU(i % d.VM.NumVCPUs())})
	}
	return out
}

// Attach gives v an NVMetro virtual controller over part, composed as spec
// declares.
func (s *System) Attach(v *VM, part Partition, spec Spec) (*Volume, error) {
	if err := spec.validate(part); err != nil {
		return nil, fmt.Errorf("nvmetro: invalid volume spec: %w", err)
	}
	sol := stack.NewNVMetro(s.Host)
	if spec.Pool != nil {
		sol = stack.NewNVMetroOn(spec.Pool.sol)
	}
	switch {
	case spec.Encrypt != nil:
		sol.WithEncryption(spec.Encrypt.Key, spec.Encrypt.SGX)
	case spec.Replicate != nil:
		sol.WithReplication(spec.Replicate.Secondary())
	case spec.Cache != nil:
		sol.WithCache(*spec.Cache)
	}
	if spec.Supervise != nil {
		sol.WithSupervision(*spec.Supervise)
	}
	if spec.Integrity != nil {
		sol.WithIntegrity(*spec.Integrity)
	}
	var disk Disk
	if spec.CloneOf != nil {
		disk = sol.WithSnapshots(spec.CloneOf).CloneFrom(v)
	} else {
		disk = sol.Provision(v, part)
	}
	if spec.QoS != nil {
		sol.SetQoS(v, *spec.QoS)
	}
	return &Volume{
		VM: v, Disk: disk, Ctrl: sol.ControllerFor(v),
		Supervisor: sol.SupervisorFor(v),
		Domain:     sol.IntegrityDomainFor(v),
		Scrubber:   sol.ScrubberFor(v),
		Resyncer:   sol.ResyncerFor(v),
		Store:      sol.CloneStoreFor(v),
		sol:        sol,
	}, nil
}

// Pool is a set of router workers shared by every volume attached with
// Spec.Pool (by default each volume gets a worker of its own).
type Pool struct {
	sol *stack.NVMetro
	qos bool
}

// NewNVMetroShared creates a pool of the given number of router workers
// (one router serving every volume of the pool): the multi-tenant setup of
// the QoS and Fig. 5 scaling evaluations.
func (s *System) NewNVMetroShared(workers int) *Pool {
	return &Pool{sol: stack.NewNVMetroShared(s.Host, workers)}
}

// NewNVMetroSharded creates a pool of per-core dispatch shards (one host
// thread each) with least-loaded tenant placement and adaptive path
// promotion enabled.
func (s *System) NewNVMetroSharded(shards int) *Pool {
	return &Pool{sol: stack.NewNVMetroSharded(s.Host, shards)}
}

// WithQoS enables the WFQ arbiter on the pool's workers: volumes register
// as tenants with a default contract unless their Spec.QoS says otherwise.
func (p *Pool) WithQoS(cfg QoSConfig) *Pool {
	p.sol.WithQoS(cfg)
	p.qos = true
	return p
}

// Router returns the pool's router — counters, ShardInfos, QoSSnapshot —
// or nil before the first volume is attached.
func (p *Pool) Router() *Router { return p.sol.Router() }

// Dump renders the pool's per-shard tenant assignment, promotion tier and
// inbox depths ("" before the first volume is attached).
func (p *Pool) Dump() string {
	if fl := p.sol.Fleet(); fl != nil {
		return fl.Dump()
	}
	return ""
}

// RemoteHost is a second machine reachable over a simulated NVMe-oF fabric.
type RemoteHost = stack.RemoteHost

// NewRemoteHost creates the remote machine for replication setups, with its
// own CPU, NVMe drive and fabric link back to this host.
func (s *System) NewRemoteHost(cores int) *RemoteHost {
	mode := s.cfg.Backing
	return stack.NewRemoteHost(s.Env, cores, s.cfg.Params.Device, device.NewStore(mode, s.cfg.Params.Device.BlockSize()))
}

// CacheParams configures the classifier-steered host block cache storage
// function (classifier heat threshold plus internal/cache sizing).
type CacheParams = storfn.CacheParams

// Cacher is the cache UIF: per-request stats, the block cache and the
// classifier's heat map.
type Cacher = storfn.Cacher

// DefaultCacheParams returns the calibrated cache configuration.
func DefaultCacheParams() CacheParams { return storfn.DefaultCacheParams() }

// DefaultSupervisePolicy returns the calibrated UIF watchdog policy.
func DefaultSupervisePolicy() SupervisePolicy { return supervise.DefaultPolicy() }

// NewFaultPlan creates a deterministic fault schedule; arm sites on it
// (e.g. WithUIFCrash) and hand per-site injectors to a Supervisor.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// DefaultScrubConfig returns the calibrated background-scrub policy.
func DefaultScrubConfig() ScrubConfig { return integrity.DefaultScrubConfig() }

// NewMemStore creates a content-keeping backing store for integrity work.
func NewMemStore(blockSize uint32) *MemStore { return device.NewMemStore(blockSize) }

// NewCorruptingStore wraps inner with deterministic silent-corruption
// injection driven by the plan's rules for the given site. blocks bounds
// where misdirected writes may land.
func NewCorruptingStore(inner Store, plan *FaultPlan, site string, blockSize uint32, blocks uint64) *CorruptingStore {
	return integrity.NewCorruptingStore(inner, plan, site, blockSize, blocks)
}

// NewGoldenImage creates an empty golden image of blocks logical blocks on
// the host device's block size. cacheChunks > 0 fronts the shared chunk
// index with a content-addressed cache (one cache line per unique chunk,
// shared by every clone). Load content through Image.Master(), then Seal.
func (s *System) NewGoldenImage(blocks, cacheChunks uint64) *GoldenImage {
	return stack.NewGoldenImage(s.Host, blocks, cacheChunks)
}

// Baseline names accepted by AttachBaseline.
const (
	BaselineMDev        = "mdev"
	BaselinePassthrough = "passthrough"
	BaselineQEMU        = "qemu"
	BaselineVhostSCSI   = "vhost-scsi"
	BaselineSPDK        = "spdk"
)

// AttachBaseline provisions one of the paper's comparison stacks. They are
// different systems, not NVMetro compositions: no Spec applies, and the
// returned Volume carries only VM and Disk.
func (s *System) AttachBaseline(name string, v *VM, part Partition) (*Volume, error) {
	var sol stack.Solution
	switch name {
	case BaselineMDev:
		sol = stack.NewMDev(s.Host)
	case BaselinePassthrough:
		sol = stack.NewPassthrough(s.Host)
	case BaselineQEMU:
		sol = stack.NewQEMU(s.Host)
	case BaselineVhostSCSI:
		sol = stack.NewVhostSCSI(s.Host)
	case BaselineSPDK:
		sol = stack.NewSPDK(s.Host)
	default:
		return nil, fmt.Errorf("nvmetro: unknown baseline %q", name)
	}
	return &Volume{VM: v, Disk: sol.Provision(v, part)}, nil
}

// AddNamespace creates a fresh namespace of the given size (in device
// blocks) on the device under test and returns a partition covering it.
// Per-tenant whole namespaces are the sharded fleet's promotable layout:
// they keep the default, statically-provable fast-path classifier.
func (s *System) AddNamespace(blocks uint64) Partition {
	dev := s.Host.Dev
	nsid := dev.NextNSID()
	dev.AddNamespace(nsid, blocks, device.NewStore(s.cfg.Backing, s.cfg.Params.Device.BlockSize()))
	return device.WholeNamespace(dev, nsid)
}

// DefaultClassifier returns the always-fast-path classifier every NVMetro
// controller boots with. Its verdict is statically provable, so tenants
// running it are eligible for path promotion.
func DefaultClassifier() *Program { return core.DefaultClassifier() }

// PartitionClassifier returns the partition-confining classifier for part.
// Its verdict depends on map state, so loading it demotes a promoted
// tenant (the hot-swap fence).
func PartitionClassifier(part Partition) *Program {
	prog, _ := storfn.PartitionClassifier(part)
	return prog
}

// BootProfile returns the read-mostly boot-storm workload: shared zipfian
// offsets over a common image extent, a small write fraction.
func BootProfile(warmup, duration Duration) FIOConfig {
	return fio.BootProfile(warmup, duration)
}

// RunFIO executes a fio-equivalent workload and returns its results. It
// drives the simulation itself; call from normal (non-process) context.
func (s *System) RunFIO(cfg FIOConfig, targets []FIOTarget) FIOResult {
	return fio.Run(s.Env, s.Host.CPU, targets, cfg)
}

// RunFIOMixed executes several differently-configured workload groups
// concurrently over one shared measurement window (see fio.RunMixed).
func (s *System) RunFIOMixed(groups []FIOGroup) []FIOResult {
	return fio.RunMixed(s.Env, s.Host.CPU, groups)
}

// Run executes fn as a simulated guest program and drives the simulation
// until it finishes (or the virtual deadline passes). It reports whether fn
// completed.
func (s *System) Run(deadline Duration, fn func(p *Proc)) bool {
	done := false
	s.Env.Go("user", func(p *sim.Proc) {
		fn(p)
		done = true
		s.Env.Stop()
	})
	s.Env.RunUntil(s.Env.Now().Add(deadline))
	return done
}

// AssembleClassifier assembles eBPF classifier source text (see
// internal/ebpf's assembler syntax) with the given named maps.
func AssembleClassifier(src, name string, maps map[string]ebpf.Map) (*Program, error) {
	return ebpf.Assemble(src, name, maps, nil)
}

// NewConfigMap creates the standard partition config map (entry 0 holds
// {startLBA u64, blocks u64}) used by the shipped classifiers.
func NewConfigMap(part Partition) *ebpf.ArrayMap {
	return core.NewPartitionConfigMap(part)
}

// VerifyClassifier runs the router's verifier over a program.
func VerifyClassifier(p *Program) error { return core.NewVerifier().Verify(p) }

// Experiments lists the reproducible paper artifacts (tables and figures).
func Experiments() []string {
	var ids []string
	for _, e := range harness.List() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one paper table/figure, writing rendered tables
// to w. quick trims the grid for fast runs.
func RunExperiment(id string, quick bool, seed int64, w io.Writer) error {
	e, ok := harness.Get(id)
	if !ok {
		return fmt.Errorf("nvmetro: unknown experiment %q (have %v)", id, Experiments())
	}
	for _, tab := range e.Run(harness.Options{Quick: quick, Seed: seed}) {
		tab.Fprint(w)
	}
	return nil
}
