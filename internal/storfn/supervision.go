package storfn

import (
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
)

// This file declares each storage function's recovery policy for the
// supervision subsystem (package supervise): how its stranded in-flight
// commands reconcile, what fast-path degradation is semantically safe
// while the UIF is down, and how a restarted instance rebuilds its state.
// The types implement supervise.Function structurally; see DESIGN.md's
// failure-model matrix for the per-function argument.

// FailStopClassifier returns a classifier that completes every command
// immediately with st — the degraded policy for functions with no safe
// fast-path bypass (encryption: routing guest writes around the encryptor
// would persist plaintext). st should be retryable (SCNSNotReady) so
// guests back off and retry instead of failing I/O permanently.
func FailStopClassifier(st nvme.Status) *ebpf.Program {
	return ebpf.NewBuilder().
		MovImm64(ebpf.R0, core.ActComplete|uint64(st)).
		Exit().
		MustProgram("fail-stop")
}

// CacherSupervision is the host cache's recovery policy. The cache is
// write-through and purely an accelerator: every command it handles is
// idempotent against the backing device, so stranded commands requeue on
// the fast path, degradation is the plain partition classifier, and a
// restart begins from a cold cache with a fresh heat map — which is also
// what makes recovery coherent: no fill or write window of the dead
// instance can leak stale data into the new one, and fast-path writes
// issued while degraded cannot invalidate state that no longer exists.
type CacherSupervision struct {
	env    *sim.Env
	part   device.Partition
	params CacheParams
	cacher *Cacher
}

// NewCacherSupervision builds the policy. params must carry the final
// cache geometry (Cache.BlockSize already resolved to the device block
// size) — every rebuilt generation reuses it.
func NewCacherSupervision(env *sim.Env, part device.Partition, params CacheParams) *CacherSupervision {
	return &CacherSupervision{env: env, part: part, params: params}
}

// Cacher returns the current cache UIF generation.
func (s *CacherSupervision) Cacher() *Cacher { return s.cacher }

// Name implements supervise.Function.
func (s *CacherSupervision) Name() string { return "cacher" }

// Reconcile requeues every stranded command on the fast path: reads are
// served by the device, writes are write-through anyway.
func (s *CacherSupervision) Reconcile(nvme.Command) core.ReconcileDecision {
	return core.ReconcileDecision{Action: core.ReconcileRequeue}
}

// Degrade bypasses the cache entirely: the partition classifier keeps the
// mediation (bounds check + LBA translation) and sends everything to the
// fast path.
func (s *CacherSupervision) Degrade(vc *core.Controller) {
	prog, _ := PartitionClassifier(s.part)
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
}

// Rebuild starts the next generation from a cold cache.
func (s *CacherSupervision) Rebuild() uif.Handler {
	s.cacher = NewCacher(s.env, s.params)
	return s.cacher
}

// Promote re-installs the cache classifier wired to the new generation's
// (empty) heat map.
func (s *CacherSupervision) Promote(vc *core.Controller, _ *uif.Attachment) {
	prog, _ := CacheClassifier(s.part, s.cacher.Hints(), s.params.HotThreshold)
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
}

// ReplicatorSupervision is the mirroring function's recovery policy. A
// stranded or newly arriving write is never lost and never blocks the
// guest: the primary (fast-path) leg carries the data, the secondary is
// marked stale in the replicator's dirty log — exactly the degraded-mode
// semantics the replicator already uses for a failing secondary leg — and
// the resync engine drains the divergence after the restarted UIF is
// promoted. The dirty log is modeled as host-durable (it lives in the
// router/host, not in the UIF process), so the same Replicator state
// survives across UIF generations.
type ReplicatorSupervision struct {
	part device.Partition
	rep  *Replicator
	rs   *Resyncer

	// DegradedWrites counts guest writes routed primary-only while the
	// mirror UIF was down.
	DegradedWrites uint64
}

// NewReplicatorSupervision builds the policy around the (generation-
// surviving) replicator state.
func NewReplicatorSupervision(part device.Partition, rep *Replicator) *ReplicatorSupervision {
	return &ReplicatorSupervision{part: part, rep: rep}
}

// SetResyncer wires the mirror-consistency state machine; call once the
// resyncer exists (it needs the first attachment generation to be built).
func (s *ReplicatorSupervision) SetResyncer(rs *Resyncer) { s.rs = rs }

// Replicator returns the mirroring state shared by all generations.
func (s *ReplicatorSupervision) Replicator() *Replicator { return s.rep }

// Name implements supervise.Function.
func (s *ReplicatorSupervision) Name() string { return "replicator" }

// Reconcile completes stranded secondary-leg writes as degraded: the
// primary hop carries the data to the guest, the range goes in the dirty
// log for resync. Anything else (nothing else should be notify-routed)
// requeues on the fast path.
func (s *ReplicatorSupervision) Reconcile(cmd nvme.Command) core.ReconcileDecision {
	if cmd.Opcode() != nvme.OpWrite {
		return core.ReconcileDecision{Action: core.ReconcileRequeue}
	}
	lba, blocks := cmd.SLBA(), uint64(cmd.Blocks())
	s.rep.Dirty.Add(lba, blocks)
	s.rep.Degraded++
	s.DegradedWrites++
	if s.rs != nil {
		s.rs.noteSecondaryFailure(lba, blocks)
	}
	return core.ReconcileDecision{Action: core.ReconcileComplete, Status: nvme.SCSuccess}
}

// Degrade installs a native classifier that keeps the partition mediation
// but routes writes primary-only, recording each in the dirty log — the
// same degraded-mirror mode a secondary outage produces, entered from the
// router instead of the UIF.
func (s *ReplicatorSupervision) Degrade(vc *core.Controller) {
	vc.SetNativeClassifier(func(ctx []byte) uint64 {
		const fast = uint64(core.ActSendHQ | core.ActWillCompleteHQ)
		cmd := (*nvme.Command)(ctx[core.CtxOffCmd:])
		if cmd.Opcode() == nvme.OpFlush {
			return fast
		}
		abs, ok := s.part.Translate(cmd.SLBA(), cmd.Blocks())
		if !ok {
			return core.ActComplete | uint64(nvme.SCLBAOutOfRange)
		}
		cmd.SetSLBA(abs)
		if cmd.Opcode() == nvme.OpWrite {
			s.rep.Dirty.Add(abs, uint64(cmd.Blocks()))
			s.rep.Degraded++
			s.DegradedWrites++
			if s.rs != nil {
				s.rs.noteSecondaryFailure(abs, uint64(cmd.Blocks()))
			}
		}
		return fast
	})
}

// Rebuild reuses the replicator: its state (dirty log, counters) is host
// state, not UIF state.
func (s *ReplicatorSupervision) Rebuild() uif.Handler { return s.rep }

// Promote swaps the routed classifier back in, points the resyncer at the
// new attachment generation and kicks the drain.
func (s *ReplicatorSupervision) Promote(vc *core.Controller, att *uif.Attachment) {
	vc.SetNativeClassifier(nil)
	prog, _ := ReplicatorClassifier(s.part)
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
	if s.rs != nil {
		s.rs.SetAttachment(att)
		s.rs.Trigger()
	}
}

// EncryptorSupervision is the transparent-encryption function's recovery
// policy: fail-stop. There is no safe bypass — completing a stranded
// write from the fast path, or routing new writes there, would persist
// plaintext — so stranded commands complete with a retryable status and
// degraded mode completes everything with the same status until the
// restarted UIF (fresh crypto context, same key) is promoted.
type EncryptorSupervision struct {
	part  device.Partition
	key   []byte
	costs EncryptorCosts
	enc   *Encryptor
}

// NewEncryptorSupervision builds the policy; key is retained for rebuilds.
func NewEncryptorSupervision(part device.Partition, key []byte, costs EncryptorCosts) *EncryptorSupervision {
	return &EncryptorSupervision{part: part, key: append([]byte(nil), key...), costs: costs}
}

// Encryptor returns the current encryptor generation.
func (s *EncryptorSupervision) Encryptor() *Encryptor { return s.enc }

// Name implements supervise.Function.
func (s *EncryptorSupervision) Name() string { return "encryptor" }

// Reconcile fail-stops every stranded command: SCNSNotReady is retryable,
// and the guest's data never touches the device unencrypted.
func (s *EncryptorSupervision) Reconcile(nvme.Command) core.ReconcileDecision {
	return core.ReconcileDecision{Action: core.ReconcileComplete, Status: nvme.SCNSNotReady}
}

// Degrade installs the fail-stop classifier.
func (s *EncryptorSupervision) Degrade(vc *core.Controller) {
	if err := vc.LoadClassifier(FailStopClassifier(nvme.SCNSNotReady)); err != nil {
		panic(err)
	}
}

// Rebuild creates a fresh crypto context with the retained key.
func (s *EncryptorSupervision) Rebuild() uif.Handler {
	enc, err := NewEncryptor(s.key, s.costs)
	if err != nil {
		panic(err)
	}
	s.enc = enc
	return enc
}

// Promote re-installs the encryptor classifier.
func (s *EncryptorSupervision) Promote(vc *core.Controller, _ *uif.Attachment) {
	prog, _ := EncryptorClassifier(s.part)
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
}
