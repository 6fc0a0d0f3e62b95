package integrity

import (
	"fmt"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/metrics"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
)

// ScrubConfig tunes the background scrubber.
type ScrubConfig struct {
	// Rate is the scrub bandwidth in bytes per second: the refill rate of
	// the scrubber's token bucket, charged one token per byte read. Must be
	// positive.
	Rate float64
	// Interval is the pause between passes in continuous mode (0: 5ms).
	Interval sim.Duration
}

const (
	// scrubChunkBlocks is the scrub read granule in device blocks; the
	// token bucket holds two chunks' worth of bytes.
	scrubChunkBlocks uint64 = 256
	// recheckDelay is how long a suspect block is allowed to settle before
	// the confirming re-read — it filters the benign race where a guest
	// write has been stamped but its device write has not landed yet. It
	// exceeds the device's write service time.
	recheckDelay = 200 * sim.Microsecond
)

// DefaultScrubConfig returns a moderate policy: 100 MB/s of scrub
// bandwidth.
func DefaultScrubConfig() ScrubConfig {
	return ScrubConfig{Rate: 100e6}
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
// Pacing reuses the QoS token-bucket primitive, one token per byte, instead
// of a bespoke limiter.
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

	resync *storfn.Resyncer
	cache  CacheInvalidator

	bucket *qos.Bucket

	kick       *sim.Cond
	pending    bool
	continuous bool
	divergence bool

	// The pass in flight: extents left to read, suspects left to recheck.
	left     []storfn.Range
	suspects []uint64

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
	s := &Scrubber{
		env: env, dom: dom, legs: storfn.NewMirrorLegs(env, primary, th, blockShift),
		cfg: cfg, shift: blockShift,
		bucket: qos.NewBucket(cfg.Rate, 2*float64(scrubChunkBlocks<<blockShift)),
		kick:   sim.NewCond(env),
	}
	env.After(0, s.wait)
	return s, nil
}

// SetReplica attaches the mirror's resync engine. The scrubber reads the
// replica through the engine's legs, which the supervisor re-points at each
// restarted UIF, and hands replica divergence to the engine to repair.
func (s *Scrubber) SetReplica(rs *storfn.Resyncer) { s.resync = rs }

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

// Stop ends continuous mode after the pass in flight. During the pause
// after a pass, the next pass is already scheduled, and it still runs.
func (s *Scrubber) Stop() { s.continuous = false }

// wait is the background worker: park until a pass is pending, then walk
// every stamped extent once.
func (s *Scrubber) wait() {
	if !s.pending {
		s.kick.WaitFunc(s.wait)
		return
	}
	s.pending = false
	s.left = s.dom.StampedRanges()
	s.next()
}

// next scrubs the pass's next chunk. At the end of the pass it hands
// accumulated replica divergence to the resync engine, and in continuous
// mode schedules the next pass cfg.Interval later.
func (s *Scrubber) next() {
	if c, ok := storfn.NextChunk(&s.left, scrubChunkBlocks); ok {
		s.scrubChunk(c.LBA, c.Blocks)
		return
	}
	s.Passes++
	if s.divergence {
		s.divergence = false
		s.resync.Trigger()
	}
	if s.continuous {
		s.pending = true // the pass after the pause: Stop does not cancel it
		s.env.After(s.cfg.Interval, s.wait)
		return
	}
	s.wait()
}

// scrubChunk reads one chunk from every leg, checks every block against
// PI, and sends mismatches to the recheck protocol.
func (s *Scrubber) scrubChunk(lba, blocks uint64) {
	s.readLegs(lba, blocks, nil, func(pbuf, sbuf []byte) {
		bs := uint64(s.dom.blockSize)
		for i := uint64(0); i < blocks; i++ {
			s.ScrubbedBlocks++
			ok := s.dom.VerifyBlock(lba+i, pbuf[i*bs:(i+1)*bs])
			if ok && sbuf != nil {
				ok = s.dom.VerifyBlock(lba+i, sbuf[i*bs:(i+1)*bs])
			}
			if !ok {
				s.suspects = append(s.suspects, lba+i)
			} else if s.dom.Quarantined(lba+i, 1) {
				// The block verifies on every leg again (a racing guest
				// write landed after the quarantine decision): it is safe
				// to serve.
				s.dom.unquarantine(lba+i, 1)
			}
		}
		if n := len(s.suspects); n > 0 {
			s.Suspects += uint64(n)
			s.env.After(recheckDelay, s.recheckNext)
			return
		}
		s.next()
	})
}

// readLegs reads blocks at lba from the primary, then from the replica if
// one is attached, each read charged to the token bucket first, and passes
// then both payloads (the replica's nil if it has none). landed, if set,
// gets the primary's as its read lands. A failed read is counted, and a
// failed primary read skips the chunk or suspect: recheckNext moves on (a
// chunk is read only while no suspect is left).
func (s *Scrubber) readLegs(lba, blocks uint64, landed func(pbuf []byte), then func(pbuf, sbuf []byte)) {
	nbytes := blocks << s.shift
	s.throttle(nbytes, func() {
		pbuf := make([]byte, nbytes)
		s.legs.PrimaryIO(blockdev.BioRead, lba, pbuf, func(st nvme.Status) {
			if !delivered(st) {
				s.Errors++
				s.recheckNext()
				return
			}
			if landed != nil {
				landed(pbuf)
			}
			if s.resync == nil {
				then(pbuf, nil)
				return
			}
			s.throttle(nbytes, func() {
				sbuf := make([]byte, nbytes)
				s.resync.Legs().SecondaryIO(blockdev.BioRead, lba, sbuf, func(st nvme.Status) {
					if !delivered(st) {
						s.Errors++
						sbuf = nil
					}
					then(pbuf, sbuf)
				})
			})
		})
	})
}

// delivered reports whether a scrub read delivered its payload: a
// guard-check status from a verifying lower layer is a detection signal,
// not an I/O error.
func delivered(st nvme.Status) bool { return st.OK() || st == nvme.SCGuardCheck }

// recheckNext rechecks the chunk's next settled suspect, or goes on with
// the pass once none is left.
func (s *Scrubber) recheckNext() {
	if len(s.suspects) == 0 {
		s.next()
		return
	}
	lba := s.suspects[0]
	s.suspects = s.suspects[1:]
	// The primary is judged by its read, before the replica's lands: a
	// guest write in between re-stamps the block's PI.
	var pGood bool
	s.readLegs(lba, 1, func(pblk []byte) { pGood = s.dom.VerifyBlock(lba, pblk) }, func(_, sblk []byte) {
		s.recheck(lba, pGood, sblk)
	})
}

// recheck acts on what is still wrong with a re-read suspect block: repair
// the primary from a verified replica copy, re-dirty a diverged replica for
// the resync engine, or quarantine when no good copy exists.
func (s *Scrubber) recheck(lba uint64, pGood bool, sblk []byte) {
	sGood := sblk != nil && s.dom.VerifyBlock(lba, sblk)
	if pGood && (sblk == nil || sGood) {
		s.Races++ // an in-flight guest write; nothing is wrong
		s.recheckNext()
		return
	}
	if !s.Detected {
		s.Detected, s.FirstDetectAt = true, s.env.Now()
	}
	switch {
	case !pGood && sGood:
		// The replica copy matches PI: rewrite the primary block.
		s.DetectedBlocks++
		s.throttle(uint64(s.dom.blockSize), func() {
			s.legs.PrimaryIO(blockdev.BioWrite, lba, sblk, func(st nvme.Status) {
				if st.OK() {
					s.RepairedBlocks++
					s.dom.unquarantine(lba, 1)
					if s.cache != nil {
						s.cache.Invalidate(lba, 1)
					}
				} else {
					s.Errors++
					s.quarantine(lba)
				}
				s.recheckNext()
			})
		})
		return
	case !pGood:
		s.DetectedBlocks++
		s.quarantine(lba)
	default:
		// Primary good, replica diverged: targeted resync repairs it.
		s.ReplicaBad++
		s.resync.NoteDivergence(lba, 1)
		s.divergence = true
	}
	s.recheckNext()
}

// quarantine marks lba as having no good copy anywhere: guest reads fail
// with a media error instead of serving wrong data until a later pass
// repairs it.
func (s *Scrubber) quarantine(lba uint64) {
	s.QuarantineEvents++
	s.dom.quarantine(lba, 1)
	if s.cache != nil {
		s.cache.Invalidate(lba, 1)
	}
}

// throttle runs then once the token bucket covers nbytes of scrub traffic.
func (s *Scrubber) throttle(nbytes uint64, then func()) {
	n := float64(nbytes)
	if s.bucket.Take(n, s.env.Now()) {
		then()
		return
	}
	s.env.After(s.bucket.WaitTime(n, s.env.Now()), func() { s.throttle(nbytes, then) })
}

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
