package integrity

import (
	"fmt"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
)

// ScrubConfig tunes the background scrubber.
type ScrubConfig struct {
	// Rate is the token refill rate of the scrubber's QoS bucket, in
	// service-cost units per second. Scrub bytes are charged at the
	// scavenger-class multiplier, so the actual scrub bandwidth is
	// Rate / qos.DefaultClassCost(qos.ClassScavenger). Must be positive.
	Rate float64
	// Interval is the pause between passes in continuous mode (0: 5ms).
	Interval sim.Duration
}

const (
	// scrubChunkBlocks is the scrub read granule in device blocks; the QoS
	// bucket holds two chunks' worth of scavenger-class cost.
	scrubChunkBlocks uint64 = 256
	// recheckDelay is how long a suspect block is allowed to settle before
	// the confirming re-read — it filters the benign race where a guest
	// write has been stamped but its device write has not landed yet. It
	// exceeds the device's write service time.
	recheckDelay = 200 * sim.Microsecond
)

// DefaultScrubConfig returns a moderate policy: ~100 MB/s of actual
// scrub bandwidth at the scavenger multiplier.
func DefaultScrubConfig() ScrubConfig {
	return ScrubConfig{Rate: 100e6 * qos.DefaultClassCost(qos.ClassScavenger)}
}

// Validate rejects policies that cannot work.
func (c ScrubConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("integrity: scrub rate must be positive, got %g", c.Rate)
	}
	return nil
}

func (c ScrubConfig) withDefaults() (ScrubConfig, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Interval <= 0 {
		c.Interval = 5 * sim.Millisecond
	}
	return c, nil
}

// CacheInvalidator drops cached copies of repaired or quarantined ranges
// (satisfied by cache.Cache).
type CacheInvalidator interface {
	Invalidate(lba, blocks uint64)
}

// Scrubber is the background integrity worker: it walks the domain's
// stamped extents, cross-checks primary (and, when a mirror is attached,
// replica) content against the PI table, and repairs what it can —
// primary damage is rewritten from a verified replica copy, replica
// damage is handed to the Resyncer as targeted dirty regions, and blocks
// with no good copy anywhere are quarantined so guest reads fail honestly
// instead of returning wrong data.
//
// Pacing reuses the QoS token-bucket primitive charged at the
// scavenger-class cost multiplier, so scrub I/O is shaped like any other
// background-class work instead of by a bespoke limiter.
//
// A suspect block is never condemned on one read: the PI is stamped at
// admission, before the device write lands, so a scrub read can race a
// legitimate in-flight write. Suspects settle for recheckDelay and are
// re-read; only a block that still mismatches is treated as corrupt.
type Scrubber struct {
	env   *sim.Env
	dom   *Domain
	legs  *storfn.MirrorLegs
	cfg   ScrubConfig
	shift uint8

	rep    *storfn.Replicator
	resync *storfn.Resyncer
	cache  CacheInvalidator

	bucket *qos.Bucket
	cost   float64

	kick       *sim.Cond
	pending    bool
	continuous bool
	divergence bool

	// Detection latency: the first confirmed-corrupt block of the run.
	Detected      bool
	FirstDetectAt sim.Time

	// Stats
	Passes           uint64 // completed scrub passes
	ScrubbedBlocks   uint64 // blocks read and checked against PI
	Suspects         uint64 // first-read mismatches sent to recheck
	Races            uint64 // suspects that settled clean (in-flight writes)
	DetectedBlocks   uint64 // confirmed corrupt primary blocks
	RepairedBlocks   uint64 // primary blocks rewritten from the replica
	ReplicaBad       uint64 // confirmed corrupt replica blocks (resync repairs)
	QuarantineEvents uint64 // blocks quarantined (no good copy available)
	Errors           uint64 // scrub-leg I/O failures (fail-stop, skipped)
}

// NewScrubber creates a scrubber over the primary leg of a domain.
// blockShift is log2 of the device block size; th is the CPU thread scrub
// I/O submission is charged to.
func NewScrubber(env *sim.Env, dom *Domain, primary blockdev.BlockDevice, th *sim.Thread, blockShift uint8, cfg ScrubConfig) (*Scrubber, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cost := qos.DefaultClassCost(qos.ClassScavenger)
	s := &Scrubber{
		env: env, dom: dom, legs: storfn.NewMirrorLegs(env, primary, nil, th, blockShift),
		cfg: cfg, shift: blockShift,
		bucket: qos.NewBucket(cfg.Rate, 2*float64(scrubChunkBlocks<<blockShift)*cost),
		cost:   cost,
		kick:   sim.NewCond(env),
	}
	env.Go("integrity-scrub", s.run)
	return s, nil
}

// Config returns the active scrub policy.
func (s *Scrubber) Config() ScrubConfig { return s.cfg }

// SetReplica attaches the mirror leg: rep/resync drive targeted repair of
// replica divergence, att is the uif ring the replica is reached through.
func (s *Scrubber) SetReplica(rep *storfn.Replicator, rs *storfn.Resyncer, att *uif.Attachment) {
	s.rep, s.resync, s.legs.Secondary = rep, rs, att
}

// SetAttachment repoints the replica leg at a new uif attachment
// generation (supervisor restart).
func (s *Scrubber) SetAttachment(att *uif.Attachment) {
	if s.legs.Secondary != nil {
		s.legs.Secondary = att
	}
}

// SetCache registers the cache to invalidate on repair or quarantine.
func (s *Scrubber) SetCache(c CacheInvalidator) { s.cache = c }

// Trigger schedules one scrub pass.
func (s *Scrubber) Trigger() {
	s.pending = true
	s.kick.Signal(nil)
}

// Start begins continuous scrubbing: passes separated by cfg.Interval.
func (s *Scrubber) Start() {
	s.continuous = true
	s.Trigger()
}

// Stop ends continuous mode after the current pass.
func (s *Scrubber) Stop() { s.continuous = false }

func (s *Scrubber) run(p *sim.Proc) {
	for {
		for !s.pending {
			s.kick.Wait()
		}
		s.pending = false
		s.pass(p)
		if s.continuous {
			p.Sleep(s.cfg.Interval)
			s.pending = true
		}
	}
}

// pass walks every stamped extent once, then hands accumulated replica
// divergence to the resync engine.
func (s *Scrubber) pass(p *sim.Proc) {
	for _, r := range s.dom.StampedRanges() {
		for off := uint64(0); off < r.Blocks; {
			n := r.Blocks - off
			if n > scrubChunkBlocks {
				n = scrubChunkBlocks
			}
			s.scrubChunk(p, r.LBA+off, n)
			off += n
		}
	}
	s.Passes++
	if s.divergence && s.resync != nil {
		s.divergence = false
		s.resync.Trigger()
	}
}

// scrubChunk reads one chunk from the primary (and replica, when
// attached), checks every block against PI, and sends mismatches to the
// recheck protocol. A guard-check status from a verifying lower layer is
// a detection signal, not an I/O error: the payload was still delivered.
func (s *Scrubber) scrubChunk(p *sim.Proc, lba, blocks uint64) {
	nbytes := blocks << s.shift
	s.throttle(p, nbytes)
	pbuf := make([]byte, nbytes)
	if st := s.legs.PrimaryIO(p, blockdev.BioRead, lba, pbuf); !st.OK() && st != nvme.SCGuardCheck {
		s.Errors++
		return
	}
	var sbuf []byte
	if s.legs.Secondary != nil {
		s.throttle(p, nbytes)
		sbuf = make([]byte, nbytes)
		if st := s.legs.SecondaryIO(blockdev.BioRead, lba, sbuf); !st.OK() && st != nvme.SCGuardCheck {
			s.Errors++
			sbuf = nil
		}
	}
	bs := uint64(s.dom.blockSize)
	var suspects []uint64
	for i := uint64(0); i < blocks; i++ {
		s.ScrubbedBlocks++
		ok := s.dom.VerifyBlock(lba+i, pbuf[i*bs:(i+1)*bs])
		if ok && sbuf != nil {
			ok = s.dom.VerifyBlock(lba+i, sbuf[i*bs:(i+1)*bs])
		}
		if !ok {
			suspects = append(suspects, lba+i)
		} else if s.dom.Quarantined(lba+i, 1) {
			// The block verifies on every leg again (a racing guest write
			// landed after the quarantine decision): it is safe to serve.
			s.dom.Unquarantine(lba+i, 1)
		}
	}
	if len(suspects) == 0 {
		return
	}
	s.Suspects += uint64(len(suspects))
	p.Sleep(recheckDelay)
	for _, sl := range suspects {
		s.recheck(p, sl)
	}
}

// recheck re-reads one settled suspect block on both legs and acts on
// what is still wrong: repair the primary from a verified replica copy,
// re-dirty a diverged replica for the resync engine, or quarantine when
// no good copy exists.
func (s *Scrubber) recheck(p *sim.Proc, lba uint64) {
	bs := uint64(s.dom.blockSize)
	s.throttle(p, bs)
	pblk := make([]byte, bs)
	if st := s.legs.PrimaryIO(p, blockdev.BioRead, lba, pblk); !st.OK() && st != nvme.SCGuardCheck {
		s.Errors++
		return
	}
	pGood := s.dom.VerifyBlock(lba, pblk)
	var sblk []byte
	sGood := false
	if s.legs.Secondary != nil {
		s.throttle(p, bs)
		sblk = make([]byte, bs)
		if st := s.legs.SecondaryIO(blockdev.BioRead, lba, sblk); st.OK() || st == nvme.SCGuardCheck {
			sGood = s.dom.VerifyBlock(lba, sblk)
		} else {
			s.Errors++
			sblk = nil
		}
	}
	if pGood && (sblk == nil || sGood) {
		s.Races++ // an in-flight guest write; nothing is wrong
		return
	}
	if !s.Detected {
		s.Detected, s.FirstDetectAt = true, p.Now()
	}
	if !pGood {
		s.DetectedBlocks++
		if sGood {
			// The replica copy matches PI: rewrite the primary block.
			s.throttle(p, bs)
			if st := s.legs.PrimaryIO(p, blockdev.BioWrite, lba, sblk); st.OK() {
				s.RepairedBlocks++
				s.dom.Unquarantine(lba, 1)
				if s.cache != nil {
					s.cache.Invalidate(lba, 1)
				}
				return
			}
			s.Errors++
		}
		// No good copy anywhere: quarantine so guest reads fail with a
		// media error instead of serving wrong data. A later pass can
		// still repair and lift the quarantine if the replica recovers.
		s.QuarantineEvents++
		s.dom.Quarantine(lba, 1)
		if s.cache != nil {
			s.cache.Invalidate(lba, 1)
		}
		return
	}
	// Primary good, replica diverged: targeted resync repairs it.
	s.ReplicaBad++
	if s.resync != nil {
		s.resync.NoteDivergence(lba, 1)
		s.divergence = true
	} else if s.rep != nil {
		s.rep.Dirty.Add(lba, 1)
	}
}

// throttle charges nbytes of scrub traffic at the scavenger cost
// multiplier against the QoS bucket, sleeping out any deficit.
func (s *Scrubber) throttle(p *sim.Proc, nbytes uint64) {
	cost := float64(nbytes) * s.cost
	for !s.bucket.Take(cost, p.Now()) {
		p.Sleep(s.bucket.WaitTime(cost, p.Now()))
	}
}

// Domain returns the protection-info domain this scrubber verifies.
func (s *Scrubber) Domain() *Domain { return s.dom }

// Collect folds the scrub counters into cs under the "scrub." prefix.
func (s *Scrubber) Collect(cs *metrics.CounterSet) {
	cs.Add("scrub.passes", s.Passes)
	cs.Add("scrub.blocks", s.ScrubbedBlocks)
	cs.Add("scrub.suspects", s.Suspects)
	cs.Add("scrub.races", s.Races)
	cs.Add("scrub.detected", s.DetectedBlocks)
	cs.Add("scrub.repaired", s.RepairedBlocks)
	cs.Add("scrub.replica_bad", s.ReplicaBad)
	cs.Add("scrub.quarantined", s.QuarantineEvents)
	cs.Add("scrub.errors", s.Errors)
}
