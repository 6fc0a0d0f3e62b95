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
// Volume.Ctrl. The paper's evaluation is a separate program built on the
// same internals: cmd/nvmetro-bench regenerates every table and figure.
package nvmetro

import (
	"errors"
	"fmt"

	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
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
	// dropped and stuck completions, UIF crashes/wedges).
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
	// ScrubConfig tunes the background integrity scrubber (pacing in bytes
	// per second and the pause between continuous passes).
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
	// Store, when non-nil, replaces the simulated SSD's in-memory store,
	// which keeps full contents, as the system disk's backing store — e.g.
	// a CorruptingStore for silent-corruption experiments.
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
		Params:     stack.DefaultParams(),
	}
}

// System is a complete simulated testbed: host machine, NVMe device and
// the NVMetro router, ready to attach VMs and storage functions.
type System struct {
	Env  *sim.Env
	Host *stack.Host
	cfg  Config
	nv   *stack.NVMetro // where a volume without a Pool attaches: a router of its own
}

// NewSystem builds a testbed.
func NewSystem(cfg Config) *System {
	env := sim.New(cfg.Seed)
	backing := cfg.Store
	if backing == nil {
		backing = device.NewMemStore(cfg.Params.Device.BlockSize())
	}
	h := stack.NewHost(env, cfg.Cores, cfg.GuestCores, cfg.Params, backing)
	return &System{Env: env, Host: h, cfg: cfg, nv: stack.NewNVMetro(h)}
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
type Encryption = stack.Encryption

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
	// local. Writes the secondary misses while it is unreachable are
	// tracked dirty and drained to it after the link returns (Resyncer).
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

// Volume is one attached disk with every handle its Spec produced; handles
// of features the Spec left out are nil.
type Volume = stack.Volume

// Attach gives v an NVMetro virtual controller over part, composed as spec
// declares.
func (s *System) Attach(v *VM, part Partition, spec Spec) (*Volume, error) {
	if err := spec.validate(part); err != nil {
		return nil, fmt.Errorf("nvmetro: invalid volume spec: %w", err)
	}
	pool := s.nv
	if spec.Pool != nil {
		pool = spec.Pool.sol
	}
	return pool.Attach(v, part, spec.declaration()), nil
}

// declaration is spec as internal/stack resolves it: the remote host becomes
// its secondary factory, and the pool is Attach's to pick.
func (spec Spec) declaration() stack.Spec {
	d := stack.Spec{Encrypt: spec.Encrypt, Cache: spec.Cache, Supervise: spec.Supervise,
		Integrity: spec.Integrity, CloneOf: spec.CloneOf, QoS: spec.QoS}
	if spec.Replicate != nil {
		d.Replicate = spec.Replicate.Secondary()
	}
	return d
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
	return stack.NewRemoteHost(s.Env, cores, s.cfg.Params.Device, device.NewMemStore(s.cfg.Params.Device.BlockSize()))
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

// AddNamespace creates a fresh namespace of the given size (in device
// blocks) on the device under test and returns a partition covering it.
// Per-tenant whole namespaces are the sharded fleet's promotable layout:
// they keep the default, statically-provable fast-path classifier.
func (s *System) AddNamespace(blocks uint64) Partition {
	dev := s.Host.Dev
	nsid := dev.NextNSID()
	dev.AddNamespace(nsid, blocks, device.NewMemStore(s.cfg.Params.Device.BlockSize()))
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
	return ebpf.Assemble(src, name, maps)
}

// NewConfigMap creates the standard partition config map (entry 0 holds
// {startLBA u64, blocks u64}) used by the shipped classifiers.
func NewConfigMap(part Partition) *ebpf.ArrayMap {
	return core.NewPartitionConfigMap(part)
}

// VerifyClassifier runs the router's verifier over a program.
func VerifyClassifier(p *Program) error { return core.NewVerifier().Verify(p) }
