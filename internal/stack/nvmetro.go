package stack

import (
	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/cow"
	"nvmetro/internal/device"
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

// NVMetro is the paper's system as a provisionable solution. The With*
// options declare how every volume it provisions is composed — storage
// function × supervision × integrity × clone — and Provision resolves that
// declaration once per VM, in one fixed order. The basic configuration runs
// the "dummy" fast-path classifier (or the partition classifier when the VM
// is confined to a partition).
type NVMetro struct {
	h    *Host
	name string
	rt   *routers
	spec volumeSpec
	fw   *uif.Framework
	vols map[*vm.VM]*volume
}

// routers is where a solution's controllers attach. workers == 0 gives
// every VM a router with one worker of its own (the main evaluation setup);
// workers > 0 runs one router with that many workers for all VMs (the
// Fig. 5 scalability setup), and promote additionally runs the workers as
// per-core shards with the adaptive path-promotion tier on (the scale sweep
// configuration). Solutions made by NewNVMetroOn share one.
type routers struct {
	workers int
	promote bool
	qos     *qos.Config
	shared  *core.Router // built by the first Provision when workers > 0
}

// volumeSpec is what the With* options set: the composition of each volume.
type volumeSpec struct {
	fn        function
	supervise *supervise.Policy
	integrity *integrity.ScrubConfig
	golden    *GoldenImage
}

// function declares the storage function; each With* of a function replaces
// the whole value, so a solution carries at most one.
type function struct {
	kind      fnKind
	key       []byte                                           // fnEncrypt, fnEncryptSGX
	secondary func(part device.Partition) blockdev.BlockDevice // fnReplicate
	cache     storfn.CacheParams                               // fnCache
}

type fnKind int

const (
	_ fnKind = iota // the zero value: no storage function
	fnEncrypt
	fnEncryptSGX
	fnReplicate
	fnCache
)

// volume is everything Provision built for one VM.
type volume struct {
	vc      *core.Controller
	fn      supervise.Function     // the storage function's storfn declaration
	att     *uif.Attachment        // its first UIF attachment generation
	sup     *supervise.Supervisor  // nil unless supervised
	sec     blockdev.BlockDevice   // the replication secondary
	primary *blockdev.NVMeBlockDev // the replication resync leg
	dom     *integrity.Domain
	scr     *integrity.Scrubber
	rs      *storfn.Resyncer
	clone   *cow.Store // nil unless provisioned via CloneFrom
}

// uifDepth is the notify queue depth of every storage-function attachment.
const uifDepth = 512

func newNVMetro(h *Host, name string, rt *routers) *NVMetro {
	return &NVMetro{h: h, name: name, rt: rt, vols: make(map[*vm.VM]*volume)}
}

// NewNVMetro creates the basic configuration.
func NewNVMetro(h *Host) *NVMetro { return newNVMetro(h, "NVMetro", &routers{}) }

// NewNVMetroShared creates the shared-worker configuration.
func NewNVMetroShared(h *Host, workers int) *NVMetro {
	return newNVMetro(h, "NVMetro", &routers{workers: workers})
}

// NewNVMetroSharded creates the per-core sharded configuration: tenants
// spread over per-core dispatch shards with adaptive path promotion
// enabled.
func NewNVMetroSharded(h *Host, shards int) *NVMetro {
	return newNVMetro(h, "NVMetro Sharded", &routers{workers: shards, promote: true})
}

// NewNVMetroOn creates a solution with an empty volume declaration whose
// controllers attach to pool's routers — how differently composed volumes
// share one worker pool.
func NewNVMetroOn(pool *NVMetro) *NVMetro { return newNVMetro(pool.h, pool.name, pool.rt) }

// Name implements Solution.
func (s *NVMetro) Name() string { return s.name }

// Router returns the router every VM of a shared or sharded configuration
// attaches to (nil in the router-per-VM configuration, or before the first
// Provision).
func (s *NVMetro) Router() *core.Router { return s.rt.shared }

// Fleet returns the control-plane view of Router (nil when that is).
func (s *NVMetro) Fleet() *shard.Fleet {
	if s.rt.shared == nil {
		return nil
	}
	return shard.Of(s.rt.shared)
}

// router returns the router the next controller attaches to, building it on
// fresh host threads when none exists yet.
func (s *NVMetro) router() *core.Router {
	rt := s.rt
	if rt.shared != nil {
		return rt.shared
	}
	tag := "router"
	if rt.promote {
		tag = "shard"
	}
	threads := make([]*sim.Thread, max(rt.workers, 1))
	for i := range threads {
		threads[i] = s.h.hostThread(tag)
	}
	r := core.NewRouter(s.h.Env, s.h.Params.Router, threads)
	if rt.promote {
		r.EnablePromotion()
	}
	if rt.qos != nil {
		r.EnableQoS(*rt.qos)
	}
	if rt.workers > 0 {
		rt.shared = r
	}
	return r
}

// WithQoS enables the WFQ arbiter on the router(s) this solution creates.
// VMs register as tenants with a default contract at Provision time; SetQoS
// installs per-VM contracts afterwards. Cross-tenant arbitration only takes
// effect in the shared-worker configuration, where one router sees every
// VM; in the router-per-VM setup only the per-tenant rate limits and SLO
// tracking apply. Calling WithQoS after VMs are provisioned enables the
// arbiter on the already-created routers too (their attached VMs register
// as tenants immediately); EnableQoS keeps the first config if one was
// already installed.
func (s *NVMetro) WithQoS(cfg qos.Config) *NVMetro {
	s.rt.qos = &cfg
	if s.rt.shared != nil {
		s.rt.shared.EnableQoS(cfg)
	}
	for _, vol := range s.vols {
		vol.vc.Router().EnableQoS(cfg)
	}
	return s
}

// SetQoS replaces the QoS contract of an already-provisioned VM.
func (s *NVMetro) SetQoS(v *vm.VM, tc qos.TenantConfig) {
	vc := s.vol(v).vc
	if vc == nil {
		panic("stack: SetQoS before Provision")
	}
	vc.SetQoS(tc)
}

// WithEncryption configures the transparent-encryption storage function:
// the encryptor classifier plus a plain or SGX XTS-AES UIF. The paper uses
// 2 UIF threads for the plain variant and 1 worker + 1 SGX switchless
// thread for the enclave variant.
func (s *NVMetro) WithEncryption(key []byte, useSGX bool) *NVMetro {
	s.name, s.spec.fn = "NVMetro Encr.", function{kind: fnEncrypt, key: key}
	if useSGX {
		s.name, s.spec.fn.kind = "NVMetro SGX", fnEncryptSGX
	}
	return s
}

// WithReplication configures live disk replication: the replicator
// classifier multicasts writes to the local fast path and to a UIF that
// forwards them to the remote secondary over NVMe-oF. secondary returns
// the remote block device backing a given local partition.
func (s *NVMetro) WithReplication(secondary func(part device.Partition) blockdev.BlockDevice) *NVMetro {
	s.name, s.spec.fn = "NVMetro Repl.", function{kind: fnReplicate, secondary: secondary}
	return s
}

// WithCache configures the classifier-steered host block cache: the cache
// classifier tracks per-bucket read heat and diverts hot reads to a Cacher
// UIF serving them from host memory; all writes pass through the UIF's
// invalidation window so cached data can never go stale.
func (s *NVMetro) WithCache(cp storfn.CacheParams) *NVMetro {
	s.name, s.spec.fn = "NVMetro Cache", function{kind: fnCache, cache: cp}
	return s
}

// WithSupervision runs every storage-function UIF this solution attaches
// under a supervisor with the given watchdog/restart policy. The SGX
// encryptor variant is excluded (enclave relaunch is out of scope).
func (s *NVMetro) WithSupervision(pol supervise.Policy) *NVMetro {
	s.spec.supervise = &pol
	return s
}

// WithIntegrity enables end-to-end data integrity: a per-controller PI
// domain stamped at the mediation point and verified at the guest
// completion boundary, the blockdev and fabric read completions, the cache
// serve/fill path and the replica fan-out, plus a background scrubber with
// the given policy. Composes with the base, replication and cache
// configurations; under encryption only the guest boundary is guarded
// (device bytes are ciphertext, so below-UIF boundaries have no plaintext
// expectation to check and scrubbing is skipped).
func (s *NVMetro) WithIntegrity(cfg integrity.ScrubConfig) *NVMetro {
	s.spec.integrity = &cfg
	return s
}

// Provision implements Solution. It is the one place a volume declaration
// is resolved, always in the order router → controller → storage function →
// integrity → disk: host threads and simulation processes are allocated as
// the steps run, so the order is part of every experiment's pinned output.
func (s *NVMetro) Provision(v *vm.VM, part device.Partition) vm.Disk {
	vol := &volume{vc: s.router().Attach(v, part)}
	s.vols[v] = vol
	s.wireFunction(vol)
	if s.spec.integrity != nil {
		s.wireIntegrity(vol)
	}
	return vm.NewNVMeDisk(v, vol.vc, 128, s.h.Params.Driver)
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
func (s *NVMetro) wireFunction(vol *volume) {
	vc, f, env := vol.vc, &s.spec.fn, s.h.Env
	part := vc.Partition()
	switch f.kind {
	case fnEncrypt:
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		s.launch(vol, 2, ring, storfn.NewEncryptorSupervision(part, f.key, s.h.Params.Enc))
	case fnEncryptSGX:
		// The one function outside launch: an enclave has no recovery
		// policy, so it is never supervised and has no declaration of its
		// own. It borrows the plain encryptor's for the classifier and runs
		// 1 UIF worker beside the enclave's switchless thread.
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		enclave, err := sgx.Launch(env, s.h.CPU, f.key)
		if err != nil {
			panic(err)
		}
		vol.att = s.framework(1).Attach(vc.AttachUIF(uifDepth), storfn.NewSGXEncryptor(enclave, s.h.Params.Enc), ring)
		storfn.NewEncryptorSupervision(part, f.key, s.h.Params.Enc).Promote(vc, vol.att)
	case fnReplicate:
		vol.sec = f.secondary(part)
		ring := blockdev.NewURing(env, vol.sec, s.h.Params.URing)
		fn := storfn.NewReplicatorSupervision(part, storfn.NewReplicator())
		s.launch(vol, 1, ring, fn)
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
			ini.OnReconnect(rs.OnLinkUp)
		}
		vol.rs = rs
		fn.SetResyncer(rs)
	case fnCache:
		p := f.cache
		p.Cache.BlockSize = uint32(1) << part.Dev.Params().LBAShift
		ring := blockdev.NewURing(env, s.nsBlockDev(part), s.h.Params.URing)
		s.launch(vol, 2, ring, storfn.NewCacherSupervision(env, part, p))
	default:
		if part.Start != 0 || part.Blocks != part.Dev.Namespace(part.NSID).Info.Size {
			prog, _ := storfn.PartitionClassifier(part)
			if err := vc.LoadClassifier(prog); err != nil {
				panic(err)
			}
		}
	}
}

// launch starts fn's UIF on the (single-process, multi-VM) framework, which
// the first launch creates with the given thread count: through
// supervise.Launch under the configured policy, otherwise by the same
// attach → Rebuild → Promote sequence without a watchdog.
func (s *NVMetro) launch(vol *volume, threads int, ring *blockdev.URing, fn supervise.Function) {
	fw := s.framework(threads)
	vol.fn = fn
	if pol := s.spec.supervise; pol != nil {
		sup, err := supervise.Launch(s.h.Env, fw, vol.vc, ring, uifDepth, fn, *pol)
		if err != nil {
			panic(err)
		}
		vol.sup, vol.att = sup, sup.Attachment()
		return
	}
	vol.att = fw.Attach(vol.vc.AttachUIF(uifDepth), fn.Rebuild(), ring)
	fn.Promote(vol.vc, vol.att)
}

// framework lazily creates the (single-process, multi-VM) UIF framework.
func (s *NVMetro) framework(threads int) *uif.Framework {
	if s.fw == nil {
		var ths []*sim.Thread
		for i := 0; i < threads; i++ {
			ths = append(ths, s.h.hostThread("uif"))
		}
		s.fw = uif.NewFramework(s.h.Env, s.h.Params.UIF, ths)
	}
	return s.fw
}

// wireIntegrity builds one controller's PI domain, attaches a guard to
// every boundary the active configuration exposes, and starts its scrubber.
func (s *NVMetro) wireIntegrity(vol *volume) {
	vc := vol.vc
	part := vc.Partition()
	dom, err := integrity.NewDomain(part.Dev.Params().BlockSize())
	if err != nil {
		panic(err)
	}
	vol.dom = dom
	vc.SetGuard(dom.Guard("guest"))
	if k := s.spec.fn.kind; k == fnEncrypt || k == fnEncryptSGX {
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
	scr, err := integrity.NewScrubber(s.h.Env, dom, bdev, s.h.hostThread("scrub"), part.Dev.Params().LBAShift, *s.spec.integrity)
	if err != nil {
		panic(err)
	}
	vol.scr = scr

	switch fn := vol.fn.(type) {
	case *storfn.CacherSupervision:
		c := fn.Cacher()
		c.Guard = dom.Guard("cache")
		scr.SetCache(c.Cache())
	case *storfn.ReplicatorSupervision:
		rep := fn.Replicator()
		rep.Guard = dom.Guard("replica")
		if ini, ok := vol.sec.(*nvmeof.Initiator); ok {
			ini.SetVerifier(&integrity.SectorGuard{G: dom.Guard("fabric"), Size: blockdev.SectorSize})
		}
		scr.SetReplica(rep, vol.rs, vol.att)
	}
}

// vol returns v's record (the zero record before Provision).
func (s *NVMetro) vol(v *vm.VM) volume {
	if vol := s.vols[v]; vol != nil {
		return *vol
	}
	return volume{}
}

// ControllerFor returns the virtual controller provisioned for v (the
// control-plane handle used to swap classifiers or attach UIFs live).
func (s *NVMetro) ControllerFor(v *vm.VM) *core.Controller { return s.vol(v).vc }

// SupervisorFor returns the supervisor attached to v's storage function,
// or nil when WithSupervision is not configured.
func (s *NVMetro) SupervisorFor(v *vm.VM) *supervise.Supervisor { return s.vol(v).sup }

// IntegrityDomainFor returns the PI domain wired for v's controller, or
// nil when WithIntegrity is not configured.
func (s *NVMetro) IntegrityDomainFor(v *vm.VM) *integrity.Domain { return s.vol(v).dom }

// ScrubberFor returns the background scrubber wired for v's controller, or
// nil when WithIntegrity is not configured (or the configuration has no
// device-side expectation to scrub).
func (s *NVMetro) ScrubberFor(v *vm.VM) *integrity.Scrubber { return s.vol(v).scr }

// ResyncerFor returns the mirror-consistency engine created for v's
// replicated controller (nil when WithReplication is not configured).
func (s *NVMetro) ResyncerFor(v *vm.VM) *storfn.Resyncer { return s.vol(v).rs }

// ReplicatorFor returns the replication state for v's controller, or nil
// when WithReplication is not configured.
func (s *NVMetro) ReplicatorFor(v *vm.VM) *storfn.Replicator {
	if fn, ok := s.vol(v).fn.(*storfn.ReplicatorSupervision); ok {
		return fn.Replicator()
	}
	return nil
}

// CacherFor returns the cache UIF provisioned for v's controller (stats,
// cache and heat-map access), or nil when WithCache is not configured.
// Under supervision this is the current generation — a restart replaces it.
func (s *NVMetro) CacherFor(v *vm.VM) *storfn.Cacher {
	if fn, ok := s.vol(v).fn.(*storfn.CacherSupervision); ok {
		return fn.Cacher()
	}
	return nil
}

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
