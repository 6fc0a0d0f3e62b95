package stack

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/qos"
	"nvmetro/internal/sgx"
	"nvmetro/internal/shard"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
	"nvmetro/internal/uif"
	"nvmetro/internal/vm"
)

// NVMetro is the paper's system: router workers that volumes attach to.
// Attach resolves one volume's Spec; Provision and CloneFrom, its Solution
// face, attach the Spec the With* setters declare. workers == 0 gives every
// volume a router with one worker of its own (the main evaluation setup);
// workers > 0 runs one router with that many workers for all volumes (the
// Fig. 5 scalability setup), and promote additionally runs the workers as
// per-core shards with the adaptive path-promotion tier on (the scale sweep
// configuration).
type NVMetro struct {
	h       *Host
	workers int
	promote bool
	qos     *qos.Config
	shared  *core.Router // built by the first Attach when workers > 0
	spec    Spec         // what Provision and CloneFrom attach
	vols    map[*vm.VM]*Volume
}

// Encryption selects the transparent XTS-AES encryption storage function.
type Encryption struct {
	// Key is the 256- or 512-bit XTS key (two AES keys).
	Key []byte
	// SGX runs the cipher in the enclave-backed UIF variant.
	SGX bool
}

// Spec declares what one volume is made of: at most one storage function
// (Encrypt, Replicate or Cache), supervision of it, integrity, the golden
// image to clone and a QoS contract. The zero Spec is a plain routed disk on
// the "dummy" fast-path classifier (the partition classifier when the VM is
// confined to a partition). Attach trusts the declaration; the root package
// validates it first.
type Spec struct {
	Encrypt *Encryption
	// Replicate returns the remote block device backing a local partition.
	Replicate func(part device.Partition) blockdev.BlockDevice
	Cache     *storfn.CacheParams
	// Supervise runs the storage function's UIF under a watchdog (never
	// the SGX encryptor's: an enclave has no recovery policy).
	Supervise *supervise.Policy
	Integrity *integrity.ScrubConfig
	// CloneOf attaches the volume over a fresh namespace cloned from the
	// image instead of over a partition.
	CloneOf *GoldenImage
	// QoS is the volume's contract with its router's arbiter.
	QoS *qos.TenantConfig
}

// Volume is one attached disk with every handle its Spec produced. Handles
// of features the Spec left out are nil.
type Volume struct {
	VM   *vm.VM
	Disk vm.Disk
	// Ctrl is the virtual NVMe controller, the handle for loading
	// classifiers and attaching UIFs live (nil only on comparison stacks).
	Ctrl *core.Controller

	Supervisor *supervise.Supervisor // Spec.Supervise
	Domain     *integrity.Domain     // Spec.Integrity
	Scrubber   *integrity.Scrubber   // Spec.Integrity, except under Encrypt
	Resyncer   *storfn.Resyncer      // Spec.Replicate
	Store      *cow.Store            // Spec.CloneOf: the clone's CoW store

	fn      supervise.Function     // the storage function's storfn declaration
	att     *uif.Attachment        // its first UIF attachment generation
	sec     blockdev.BlockDevice   // the replication secondary
	primary *blockdev.NVMeBlockDev // the replication resync leg
}

// Replicator returns the replication state of a Spec.Replicate volume, nil
// otherwise.
func (d *Volume) Replicator() *storfn.Replicator {
	if fn, ok := d.fn.(*storfn.ReplicatorSupervision); ok {
		return fn.Replicator()
	}
	return nil
}

// Cacher returns the cache UIF of a Spec.Cache volume (hit/miss statistics,
// the cache itself, the classifier's heat map), nil otherwise. Under
// supervision it is the current generation: a restart replaces it.
func (d *Volume) Cacher() *storfn.Cacher {
	if fn, ok := d.fn.(*storfn.CacherSupervision); ok {
		return fn.Cacher()
	}
	return nil
}

// Targets builds fio job placements on the first n vCPUs.
func (d *Volume) Targets(n int) []fio.Target { return fio.Targets(d.VM, d.Disk, n) }

// uifDepth is the notify queue depth of every storage-function attachment.
const uifDepth = 512

// NewNVMetro creates the basic configuration.
func NewNVMetro(h *Host) *NVMetro { return NewNVMetroShared(h, 0) }

// NewNVMetroShared creates the shared-worker configuration.
func NewNVMetroShared(h *Host, workers int) *NVMetro {
	return &NVMetro{h: h, workers: workers, vols: make(map[*vm.VM]*Volume)}
}

// NewNVMetroSharded creates the per-core sharded configuration: tenants
// spread over per-core dispatch shards with adaptive path promotion
// enabled.
func NewNVMetroSharded(h *Host, shards int) *NVMetro {
	return &NVMetro{h: h, workers: shards, promote: true, vols: make(map[*vm.VM]*Volume)}
}

// Router returns the router every VM of a shared or sharded configuration
// attaches to (nil in the router-per-VM configuration, or before the first
// Attach).
func (s *NVMetro) Router() *core.Router { return s.shared }

// Fleet returns the control-plane view of Router (nil when that is).
func (s *NVMetro) Fleet() *shard.Fleet {
	if s.shared == nil {
		return nil
	}
	return shard.Of(s.shared)
}

// router returns the router the next controller attaches to, building it on
// fresh host threads when none exists yet.
func (s *NVMetro) router() *core.Router {
	if s.shared != nil {
		return s.shared
	}
	tag := "router"
	if s.promote {
		tag = "shard"
	}
	threads := make([]*sim.Thread, max(s.workers, 1))
	for i := range threads {
		threads[i] = s.h.hostThread(tag)
	}
	r := core.NewRouter(s.h.Env, s.h.Params.Router, threads)
	if s.promote {
		r.EnablePromotion()
	}
	if s.qos != nil {
		r.EnableQoS(*s.qos)
	}
	if s.workers > 0 {
		s.shared = r
	}
	return r
}

// WithQoS enables the WFQ arbiter on this solution's routers, those already
// built included; VMs register as tenants with a default contract unless
// their Spec.QoS says otherwise, and a router keeps the first config it
// got. Cross-tenant arbitration only takes effect where one router sees
// every VM (shared workers); per-VM routers apply only the per-tenant rate
// limits and SLO tracking.
func (s *NVMetro) WithQoS(cfg qos.Config) *NVMetro {
	s.qos = &cfg
	if s.shared != nil {
		s.shared.EnableQoS(cfg)
	}
	for _, vol := range s.vols {
		vol.Ctrl.Router().EnableQoS(cfg)
	}
	return s
}

// WithEncryption declares the transparent-encryption storage function: the
// encryptor classifier plus a plain or SGX XTS-AES UIF. The paper uses 2
// UIF threads for the plain variant and 1 worker + 1 SGX switchless thread
// for the enclave variant.
func (s *NVMetro) WithEncryption(key []byte, useSGX bool) *NVMetro {
	s.spec.Encrypt, s.spec.Replicate, s.spec.Cache = &Encryption{Key: key, SGX: useSGX}, nil, nil
	return s
}

// WithReplication declares live disk replication: the replicator
// classifier multicasts writes to the local fast path and to a UIF that
// forwards them to the remote secondary over NVMe-oF. secondary returns
// the remote block device backing a given local partition.
func (s *NVMetro) WithReplication(secondary func(part device.Partition) blockdev.BlockDevice) *NVMetro {
	s.spec.Encrypt, s.spec.Replicate, s.spec.Cache = nil, secondary, nil
	return s
}

// WithCache declares the classifier-steered host block cache: the cache
// classifier tracks per-bucket read heat and diverts hot reads to a Cacher
// UIF serving them from host memory; all writes pass through the UIF's
// invalidation window so cached data can never go stale.
func (s *NVMetro) WithCache(cp storfn.CacheParams) *NVMetro {
	s.spec.Encrypt, s.spec.Replicate, s.spec.Cache = nil, nil, &cp
	return s
}

// WithIntegrity declares end-to-end data integrity: a per-controller PI
// domain stamped at the mediation point and verified at the guest
// completion boundary, the blockdev and fabric read completions, the cache
// serve/fill path and the replica fan-out, plus a background scrubber with
// the given policy. Composes with the base, replication and cache
// configurations; under encryption only the guest boundary is guarded
// (device bytes are ciphertext, so below-UIF boundaries have no plaintext
// expectation to check and scrubbing is skipped).
func (s *NVMetro) WithIntegrity(cfg integrity.ScrubConfig) *NVMetro {
	s.spec.Integrity = &cfg
	return s
}

// Provision implements Solution: it attaches the declared Spec over part,
// never as a clone.
func (s *NVMetro) Provision(v *vm.VM, part device.Partition) vm.Disk {
	spec := s.spec
	spec.CloneOf = nil
	return s.Attach(v, part, spec).Disk
}

// Attach gives v a virtual controller composed as spec declares (over a
// fresh clone of spec.CloneOf instead of part when that is set). It is the
// one place a volume declaration is resolved, always in the order router →
// clone namespace → controller → storage function → integrity → disk → QoS
// contract: host threads and simulation processes are allocated as the
// steps run, so the order is part of every experiment's pinned output.
func (s *NVMetro) Attach(v *vm.VM, part device.Partition, spec Spec) *Volume {
	r := s.router()
	vol := &Volume{VM: v}
	if spec.CloneOf != nil {
		part, vol.Store = spec.CloneOf.cloneNamespace(s.h.Dev)
	}
	vol.Ctrl = r.Attach(v, part)
	s.vols[v] = vol
	s.wireFunction(vol, spec)
	if spec.Integrity != nil {
		s.wireIntegrity(vol, spec)
	}
	vol.Disk = vm.NewNVMeDisk(v, vol.Ctrl, 128, s.h.Params.Driver)
	if spec.QoS != nil {
		vol.Ctrl.SetQoS(*spec.QoS)
	}
	return vol
}

// nsBlockDev opens a host block device (a queue pair of its own) onto the
// namespace part lives in.
func (s *NVMetro) nsBlockDev(part device.Partition) *blockdev.NVMeBlockDev {
	return blockdev.NewNVMeBlockDev(s.h.Env, device.WholeNamespace(part.Dev, part.NSID), s.h.CPU, s.h.guestCores, s.h.Params.Block)
}

// wireFunction installs the declared storage function on vol's controller:
// each function is its storfn declaration (classifier ↔ handler pairing and
// recovery policy in one supervise.Function), a UIF thread count and a ring
// onto its backend. Without a function, a VM confined to a partition gets
// the partition classifier.
func (s *NVMetro) wireFunction(vol *Volume, spec Spec) {
	vc, env := vol.Ctrl, s.h.Env
	part := vc.Partition()
	switch e := spec.Encrypt; {
	case e != nil && !e.SGX:
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		s.launch(vol, spec.Supervise, 2, ring, storfn.NewEncryptorSupervision(part, e.Key, s.h.Params.Enc))
	case e != nil:
		// The one function outside launch: an enclave has no recovery
		// policy, so it is never supervised and has no declaration of its
		// own. It borrows the plain encryptor's for the classifier and runs
		// 1 UIF worker beside the enclave's switchless thread.
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		enclave, err := sgx.Launch(env, s.h.CPU, e.Key)
		if err != nil {
			panic(err)
		}
		vol.att = s.framework(1).Attach(vc.AttachUIF(uifDepth), storfn.NewSGXEncryptor(enclave, s.h.Params.Enc), ring)
		storfn.NewEncryptorSupervision(part, e.Key, s.h.Params.Enc).Promote(vc, vol.att)
	case spec.Replicate != nil:
		vol.sec = spec.Replicate(part)
		ring := blockdev.NewURing(env, vol.sec, s.h.Params.URing)
		fn := storfn.NewReplicatorSupervision(part, storfn.NewReplicator())
		s.launch(vol, spec.Supervise, 1, ring, fn)
		// The resync leg: a host queue pair of its own onto the primary, so
		// drain traffic never contends with the guest's fast-path queues,
		// started by the link-up of a secondary across the fabric.
		vol.primary = s.nsBlockDev(part)
		rs, err := storfn.NewResyncer(env, fn.Replicator(), vol.primary, vol.att,
			s.h.hostThread("resync"), part.Dev.Params().LBAShift, s.h.Params.Resync)
		if err != nil {
			panic(err)
		}
		if ini, ok := vol.sec.(*nvmeof.Initiator); ok {
			ini.OnReconnect(rs.Trigger)
		}
		vol.Resyncer = rs
		fn.SetResyncer(rs)
	case spec.Cache != nil:
		p := *spec.Cache
		p.Cache.BlockSize = uint32(1) << part.Dev.Params().LBAShift
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		s.launch(vol, spec.Supervise, 2, ring, storfn.NewCacherSupervision(env, part, p))
	default:
		if part.Start != 0 || part.Blocks != part.Dev.Namespace(part.NSID).Info.Size {
			prog, _ := storfn.PartitionClassifier(part)
			if err := vc.LoadClassifier(prog); err != nil {
				panic(err)
			}
		}
	}
}

// launch starts fn's UIF on a framework of its own with the given thread
// count: through supervise.Launch under pol, otherwise by the same attach →
// Rebuild → Promote sequence without a watchdog.
func (s *NVMetro) launch(vol *Volume, pol *supervise.Policy, threads int, ring *blockdev.URing, fn supervise.Function) {
	fw := s.framework(threads)
	vol.fn = fn
	if pol != nil {
		sup, err := supervise.Launch(s.h.Env, fw, vol.Ctrl, ring, uifDepth, fn, *pol)
		if err != nil {
			panic(err)
		}
		vol.Supervisor, vol.att = sup, sup.Attachment()
		return
	}
	vol.att = fw.Attach(vol.Ctrl.AttachUIF(uifDepth), fn.Rebuild(), ring)
	fn.Promote(vol.Ctrl, vol.att)
}

// framework creates a (single-process) UIF framework on fresh host threads:
// one per attached storage function.
func (s *NVMetro) framework(threads int) *uif.Framework {
	var ths []*sim.Thread
	for i := 0; i < threads; i++ {
		ths = append(ths, s.h.hostThread("uif"))
	}
	return uif.NewFramework(s.h.Env, s.h.Params.UIF, ths)
}

// wireIntegrity builds one controller's PI domain, attaches a guard to
// every boundary the declared storage function exposes, and starts its
// scrubber.
func (s *NVMetro) wireIntegrity(vol *Volume, spec Spec) {
	vc := vol.Ctrl
	part := vc.Partition()
	dom, err := integrity.NewDomain(part.Dev.Params().BlockSize())
	if err != nil {
		panic(err)
	}
	vol.Domain = dom
	vc.SetGuard(dom.Guard("guest"))
	if spec.Encrypt != nil {
		return // ciphertext below the UIF: no device-side expectation
	}

	// The scrub leg: a dedicated host queue pair onto the same device (a
	// mirror's resync leg when it has one), verifying read completions like
	// any kernel-path consumer would.
	bdev := vol.primary
	if bdev == nil {
		bdev = s.nsBlockDev(part)
	}
	bdev.SetVerifier(&integrity.SectorGuard{G: dom.Guard("blockdev"), Size: blockdev.SectorSize})
	scr, err := integrity.NewScrubber(s.h.Env, dom, bdev, s.h.hostThread("scrub"), part.Dev.Params().LBAShift, *spec.Integrity)
	if err != nil {
		panic(err)
	}
	vol.Scrubber = scr

	if c := vol.Cacher(); c != nil {
		c.Guard = dom.Guard("cache")
		scr.SetCache(c.Cache())
	}
	if rep := vol.Replicator(); rep != nil {
		rep.Guard = dom.Guard("replica")
		if ini, ok := vol.sec.(*nvmeof.Initiator); ok {
			ini.SetVerifier(&integrity.SectorGuard{G: dom.Guard("fabric"), Size: blockdev.SectorSize})
		}
		scr.SetReplica(vol.Resyncer)
	}
}

// vol returns v's record (an empty one before v is attached).
func (s *NVMetro) vol(v *vm.VM) *Volume {
	if vol := s.vols[v]; vol != nil {
		return vol
	}
	return &Volume{}
}

// ControllerFor returns the virtual controller attached for v (the
// control-plane handle used to swap classifiers or attach UIFs live).
func (s *NVMetro) ControllerFor(v *vm.VM) *core.Controller { return s.vol(v).Ctrl }

// IntegrityDomainFor returns the PI domain wired for v's controller, or
// nil when its Spec declares no integrity.
func (s *NVMetro) IntegrityDomainFor(v *vm.VM) *integrity.Domain { return s.vol(v).Domain }

// CacherFor returns the cache UIF attached for v's controller, or nil when
// its Spec declares no cache (see Volume.Cacher).
func (s *NVMetro) CacherFor(v *vm.VM) *storfn.Cacher { return s.vol(v).Cacher() }

// RemoteHost is a second machine holding the replication secondary.
type RemoteHost struct {
	Env  *sim.Env
	CPU  *sim.CPU
	Dev  *device.Device
	Link *nvmeof.Link
	tgt  *nvmeof.Target
}

// NewRemoteHost builds the remote side of the replication experiments.
func NewRemoteHost(env *sim.Env, cores int, p device.Params, backing device.Store) *RemoteHost {
	r := &RemoteHost{Env: env, CPU: sim.NewCPU(env, cores), Link: nvmeof.DefaultLink(env)}
	r.Dev = device.New(env, p, backing)
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(r.Dev, 1), r.CPU, 0, blockdev.DefaultCosts())
	r.tgt = nvmeof.NewTarget(env, bdev, r.CPU)
	return r
}

// Secondary returns a factory exposing the remote device over the fabric.
func (r *RemoteHost) Secondary() func(part device.Partition) blockdev.BlockDevice {
	return func(part device.Partition) blockdev.BlockDevice {
		return nvmeof.NewInitiator(r.Env, r.Link, r.tgt)
	}
}
