package storfn

import (
	"fmt"
	"hash/crc32"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/uif"
)

// MirrorState is the Replicator's mirror-consistency state.
type MirrorState int

// Mirror states. The legal transitions are
// InSync → Degraded (secondary-leg write failure),
// Degraded → Resyncing (link-up or explicit trigger),
// Resyncing → Degraded (resync-leg error or renewed outage) and
// Resyncing → InSync (dirty set drained and verification clean).
const (
	StateInSync MirrorState = iota
	StateDegraded
	StateResyncing
)

func (s MirrorState) String() string {
	switch s {
	case StateInSync:
		return "InSync"
	case StateDegraded:
		return "Degraded"
	case StateResyncing:
		return "Resyncing"
	}
	return fmt.Sprintf("MirrorState(%d)", int(s))
}

// ResyncConfig tunes the background resync worker.
type ResyncConfig struct {
	// Rate is the token-bucket refill rate in bytes/second of resync copy
	// traffic; it bounds how hard resync competes with foreground guest
	// I/O for the fabric. Must be positive.
	Rate float64
}

// resyncChunkBlocks is the copy and verify granule in device blocks (128 KiB
// at 512-byte blocks). The token bucket holds two chunks of idle credit.
const resyncChunkBlocks uint64 = 256

// DefaultResyncConfig returns a moderate policy: a 200 MB/s copy rate.
func DefaultResyncConfig() ResyncConfig {
	return ResyncConfig{Rate: 200e6}
}

// validate rejects a zero or negative rate at install time: it would
// silently stall the drain loop forever while the state machine claims to
// be resyncing.
func (c ResyncConfig) validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("storfn: resync rate limit must be positive, got %g B/s", c.Rate)
	}
	return nil
}

// Resyncer drains a degraded Replicator's dirty regions back to a
// consistent mirror. A background worker copies each dirty chunk from the
// primary block device and replays it to the secondary through the
// Replicator's own uif backend ring, rate-limited by a token bucket.
//
// Concurrency contract (the write-ordering argument, see DESIGN.md §6):
// a chunk is removed from the dirty set *before* it is read, and the
// worker keeps an in-flight window over it until the secondary write
// completes. Any guest write whose secondary-leg completion lands inside
// that window re-dirties the overlap — the guest's data may just have
// been clobbered on the secondary by the stale resync read, so the chunk
// is copied again on a later iteration. Since every pass shrinks the
// dirty set unless new guest writes land, the loop converges as soon as
// foreground write traffic pauses or slows below the resync rate.
//
// Every pass ends with a CRC comparison of both legs over everything it
// copied before the mirror is declared InSync.
//
// Any resync-leg error (media error on either side, a renewed outage
// exhausting the initiator's retries) re-dirties the whole in-flight
// chunk and drops the state machine back to Degraded: no range is ever
// lost, and the next trigger resumes where the failed pass stopped.
type Resyncer struct {
	env   *sim.Env
	rep   *Replicator
	legs  *MirrorLegs
	cfg   ResyncConfig
	shift uint8

	state MirrorState
	kick  *sim.Cond // wakes the worker on a trigger

	// retrigger records a Trigger that arrived while a pass was still
	// running (about to abort — e.g. the supervisor promoted a restarted
	// UIF before the old pass observed its dead attachment): the worker
	// re-enters Resyncing right after the abort instead of parking
	// Degraded with nobody left to kick it.
	retrigger bool

	// In-flight resync window: [winLBA, winEnd) is being copied or
	// verified right now. winDirtied records a guest write landing in it.
	winOpen        bool
	winLBA, winEnd uint64
	winDirtied     bool

	// Token bucket.
	tokens   float64
	lastFill sim.Time

	// copied accumulates the ranges copied in the current pass, pending
	// verification.
	copied DirtyRegions

	// Stats
	ToDegraded       uint64 // InSync/Resyncing → Degraded transitions
	ToResyncing      uint64 // Degraded → Resyncing transitions
	ToInSync         uint64 // Resyncing → InSync transitions
	Triggers         uint64 // accepted resync triggers (link-up or explicit)
	ResyncedBlocks   uint64 // blocks copied primary → secondary
	RedirtiedBlocks  uint64 // blocks re-dirtied by guest writes mid-copy
	VerifiedBlocks   uint64 // blocks CRC-compared across both legs
	VerifyMismatches uint64 // CRC mismatches found (re-dirtied and recopied)
	Errors           uint64 // resync-leg I/O failures
	Passes           uint64 // passes that reached InSync
	Aborts           uint64 // passes that fell back to Degraded
}

// NewResyncer attaches a resync engine to rep. primary is the local
// mirror leg (read for copy and verify, charged to th); the secondary leg
// is reached through att — the same uif attachment/ring that carries the
// Replicator's foreground mirror writes, so resync traffic shares its
// ordering domain. blockShift is log2 of the device block size.
func NewResyncer(env *sim.Env, rep *Replicator, primary blockdev.BlockDevice, att *uif.Attachment, th *sim.Thread, blockShift uint8, cfg ResyncConfig) (*Resyncer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rs := &Resyncer{
		env: env, rep: rep, legs: NewMirrorLegs(env, primary, att, th, blockShift),
		cfg: cfg, shift: blockShift,
		kick:     sim.NewCond(env),
		lastFill: env.Now(),
	}
	rs.tokens = rs.burst()
	if rep.Dirty.Blocks() > 0 {
		// Attaching to an already-degraded mirror.
		rs.state = StateDegraded
		rs.ToDegraded++
	}
	rep.resync = rs
	env.Go("storfn-resync", rs.run)
	return rs, nil
}

// State returns the mirror-consistency state.
func (rs *Resyncer) State() MirrorState { return rs.state }

// Config returns the active resync policy.
func (rs *Resyncer) Config() ResyncConfig { return rs.cfg }

// setState applies a transition and counts it.
func (rs *Resyncer) setState(s MirrorState) {
	if rs.state == s {
		return
	}
	rs.state = s
	switch s {
	case StateDegraded:
		rs.ToDegraded++
	case StateResyncing:
		rs.ToResyncing++
	case StateInSync:
		rs.ToInSync++
	}
}

// SetAttachment repoints the secondary leg at a new uif attachment
// generation — the supervisor calls this when it promotes a restarted
// UIF; the dead generation's ring is never touched again.
func (rs *Resyncer) SetAttachment(att *uif.Attachment) { rs.legs.Secondary = att }

// Trigger starts a resync pass if the mirror is degraded; it is a no-op
// when already in sync. A trigger landing while a pass is running is
// remembered and replayed if that pass aborts. Safe from both process
// and callback context.
func (rs *Resyncer) Trigger() {
	if rs.state == StateResyncing {
		rs.retrigger = true
		return
	}
	if rs.state != StateDegraded {
		return
	}
	rs.Triggers++
	rs.setState(StateResyncing)
	rs.kick.Signal(nil)
}

// NoteDivergence records externally detected secondary divergence (the
// integrity scrubber's cross-check): the range is re-dirtied and a mirror
// that believed itself in sync drops to Degraded so a following Trigger
// can drain the repair. During an active pass the normal re-dirty rules
// apply — the range is simply picked up before the pass completes.
func (rs *Resyncer) NoteDivergence(lba, blocks uint64) {
	rs.rep.Dirty.Add(lba, blocks)
	if rs.state == StateInSync {
		rs.setState(StateDegraded)
	}
}

// OnLinkUp is the fabric-recovery hook: register it with the NVMe-oF
// initiator (Initiator.OnReconnect) so a closing outage window starts the
// drain as soon as the initiator has requeued its own in-flight commands.
func (rs *Resyncer) OnLinkUp() { rs.Trigger() }

// noteSecondaryFailure records a degraded guest write: the Replicator has
// already added the range to the dirty set; here the state machine reacts.
// During a resync pass a failing guest mirror write also poisons the
// in-flight window — the chunk being copied shares the failing leg.
func (rs *Resyncer) noteSecondaryFailure(lba, blocks uint64) {
	switch rs.state {
	case StateInSync:
		rs.setState(StateDegraded)
	case StateResyncing:
		if rs.winOpen && lba < rs.winEnd && lba+blocks > rs.winLBA {
			rs.winDirtied = true
		}
	}
}

// noteGuestWrite handles a *successful* mirrored guest write during a
// resync pass: if it overlaps the in-flight window, the resync copy in
// flight was read before this write and may overwrite it on the
// secondary, so the overlap is re-dirtied and copied again later.
func (rs *Resyncer) noteGuestWrite(lba, blocks uint64) {
	if rs.state != StateResyncing || !rs.winOpen {
		return
	}
	lo, hi := lba, lba+blocks
	if lo < rs.winLBA {
		lo = rs.winLBA
	}
	if hi > rs.winEnd {
		hi = rs.winEnd
	}
	if lo >= hi {
		return
	}
	rs.rep.Dirty.Add(lo, hi-lo)
	rs.RedirtiedBlocks += hi - lo
	rs.winDirtied = true
}

// run is the background worker: park until triggered, then drain.
func (rs *Resyncer) run(p *sim.Proc) {
	for {
		for rs.state != StateResyncing {
			rs.kick.Wait()
		}
		rs.pass(p)
		if rs.retrigger {
			rs.retrigger = false
			rs.Trigger()
		}
	}
}

// pass drains the dirty set, then verifies; it returns with the state
// machine at InSync (success) or Degraded (resync-leg error).
func (rs *Resyncer) pass(p *sim.Proc) {
	rs.copied = DirtyRegions{}
	for {
		ranges := rs.rep.Dirty.Ranges()
		if len(ranges) == 0 {
			if rs.copied.Blocks() > 0 {
				if !rs.verify(p) {
					rs.Aborts++
					rs.setState(StateDegraded)
					return
				}
				if rs.rep.Dirty.Blocks() > 0 {
					continue // mismatches were re-dirtied: drain again
				}
			}
			rs.Passes++
			rs.setState(StateInSync)
			return
		}
		r := ranges[0]
		n := min(r.Blocks, resyncChunkBlocks)
		if !rs.copyChunk(p, r.LBA, n) {
			rs.Aborts++
			rs.setState(StateDegraded)
			return
		}
	}
}

// copyChunk copies [lba, lba+blocks) primary → secondary under the
// in-flight window. On failure the chunk is re-dirtied in full.
func (rs *Resyncer) copyChunk(p *sim.Proc, lba, blocks uint64) bool {
	nbytes := blocks << rs.shift
	rs.throttle(p, nbytes)
	rs.rep.Dirty.Remove(lba, blocks)
	rs.openWindow(lba, blocks)
	buf := make([]byte, nbytes)
	st := rs.legs.PrimaryIO(p, blockdev.BioRead, lba, buf)
	if st.OK() {
		st = rs.legs.SecondaryIO(blockdev.BioWrite, lba, buf)
	}
	rs.closeWindow()
	if !st.OK() {
		rs.Errors++
		rs.rep.Dirty.Add(lba, blocks) // nothing lost: the chunk stays dirty
		return false
	}
	rs.ResyncedBlocks += blocks
	rs.copied.Add(lba, blocks)
	return true
}

// verify CRC-compares both legs over everything the pass copied. A clean
// mismatch is re-dirtied (the caller drains again); a compare poisoned by
// a concurrent guest write is skipped — the hook already re-dirtied the
// overlap. Returns false on a resync-leg I/O error.
func (rs *Resyncer) verify(p *sim.Proc) bool {
	ranges := rs.copied.Ranges()
	rs.copied = DirtyRegions{}
	for _, r := range ranges {
		for off := uint64(0); off < r.Blocks; {
			n := min(r.Blocks-off, resyncChunkBlocks)
			lba := r.LBA + off
			off += n
			nbytes := n << rs.shift
			rs.throttle(p, 2*nbytes) // both legs are read
			rs.openWindow(lba, n)
			pbuf := make([]byte, nbytes)
			sbuf := make([]byte, nbytes)
			st := rs.legs.PrimaryIO(p, blockdev.BioRead, lba, pbuf)
			if st.OK() {
				st = rs.legs.SecondaryIO(blockdev.BioRead, lba, sbuf)
			}
			dirtied := rs.winDirtied
			rs.closeWindow()
			if !st.OK() {
				rs.Errors++
				rs.rep.Dirty.Add(lba, n)
				return false
			}
			rs.VerifiedBlocks += n
			if dirtied {
				continue // racing guest write; overlap already re-dirtied
			}
			if crc32.ChecksumIEEE(pbuf) != crc32.ChecksumIEEE(sbuf) {
				rs.VerifyMismatches++
				rs.rep.Dirty.Add(lba, n)
			}
		}
	}
	return true
}

func (rs *Resyncer) openWindow(lba, blocks uint64) {
	rs.winOpen, rs.winLBA, rs.winEnd, rs.winDirtied = true, lba, lba+blocks, false
}

func (rs *Resyncer) closeWindow() { rs.winOpen = false }

// burst is the token bucket's depth in bytes: two chunks.
func (rs *Resyncer) burst() float64 { return float64(2 * (resyncChunkBlocks << rs.shift)) }

// throttle blocks until the token bucket covers nbytes of resync traffic.
func (rs *Resyncer) throttle(p *sim.Proc, nbytes uint64) {
	now := p.Now()
	rs.tokens += rs.cfg.Rate * now.Sub(rs.lastFill).Seconds()
	rs.tokens = min(rs.tokens, rs.burst())
	rs.lastFill = now
	if deficit := float64(nbytes) - rs.tokens; deficit > 0 {
		d := sim.Duration(deficit / rs.cfg.Rate * 1e9)
		p.Sleep(d)
		rs.tokens += rs.cfg.Rate * d.Seconds()
		rs.lastFill = p.Now()
	}
	rs.tokens -= float64(nbytes)
}

// MirrorLegs is synchronous I/O on both legs of a mirror for a background
// worker that copies or checks data across them (the resync engine, the
// integrity scrubber): a bio against the primary block device, charged to
// the worker's thread, and an I/O against the secondary through the
// Replicator's uif backend ring. Each call parks the worker on the legs' own
// condition until its I/O completes.
type MirrorLegs struct {
	// Secondary is the uif attachment the secondary leg is reached through
	// (nil while none is attached).
	Secondary *uif.Attachment

	primary blockdev.BlockDevice
	th      *sim.Thread
	shift   uint8
	done    *sim.Cond
}

// NewMirrorLegs returns the legs of a mirror over devices with
// 1<<blockShift-byte blocks; primary I/O is charged to th.
func NewMirrorLegs(env *sim.Env, primary blockdev.BlockDevice, secondary *uif.Attachment, th *sim.Thread, blockShift uint8) *MirrorLegs {
	return &MirrorLegs{Secondary: secondary, primary: primary, th: th, shift: blockShift, done: sim.NewCond(env)}
}

// sector converts a device LBA to a 512-byte sector.
func (l *MirrorLegs) sector(lba uint64) uint64 {
	return lba << l.shift / blockdev.SectorSize
}

// PrimaryIO performs one synchronous bio against the primary leg.
func (l *MirrorLegs) PrimaryIO(p *sim.Proc, op blockdev.BioOp, lba uint64, buf []byte) nvme.Status {
	var st nvme.Status
	done := false
	bio := &blockdev.Bio{Op: op, Sector: l.sector(lba), Data: buf}
	bio.OnDone = func(s nvme.Status) {
		st, done = s, true
		l.done.Signal(nil)
	}
	l.primary.SubmitBio(p, l.th, bio)
	for !done {
		l.done.Wait()
	}
	return st
}

// SecondaryIO performs one synchronous I/O against the secondary leg.
func (l *MirrorLegs) SecondaryIO(op blockdev.BioOp, lba uint64, buf []byte) nvme.Status {
	var st nvme.Status
	done := false
	l.Secondary.SubmitBackendIO(op, l.sector(lba), buf, func(_ *sim.Proc, _ *sim.Thread, s nvme.Status) {
		st, done = s, true
		l.done.Signal(nil)
	})
	for !done {
		l.done.Wait()
	}
	return st
}

// Collect folds the resync counters into cs under the "rs." prefix.
func (rs *Resyncer) Collect(cs *metrics.CounterSet) {
	cs.Add("rs.to_degraded", rs.ToDegraded)
	cs.Add("rs.to_resyncing", rs.ToResyncing)
	cs.Add("rs.to_insync", rs.ToInSync)
	cs.Add("rs.triggers", rs.Triggers)
	cs.Add("rs.resynced_blocks", rs.ResyncedBlocks)
	cs.Add("rs.redirtied_blocks", rs.RedirtiedBlocks)
	cs.Add("rs.verified_blocks", rs.VerifiedBlocks)
	cs.Add("rs.verify_mismatches", rs.VerifyMismatches)
	cs.Add("rs.errors", rs.Errors)
	cs.Add("rs.passes", rs.Passes)
	cs.Add("rs.aborts", rs.Aborts)
}
