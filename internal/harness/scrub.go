package harness

import (
	"fmt"
	"hash/crc32"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// The scrub experiment injects each silent-corruption kind below the
// device model of a PI-protected, replicated NVMetro stack and measures
// the integrity subsystem end to end: every corruption must be caught at
// a verifying boundary (never served to the guest as an OK completion),
// the background scrubber must repair damaged primary blocks from the
// clean mirror leg until the protected content of both stores is
// CRC-identical, and — with no replica to repair from — the damage must
// be quarantined so guest reads fail with an honest media error. A
// healthy scrub-on run against the scrub-off baseline bounds the
// foreground p99 cost of scrubbing.
func init() {
	register("scrub", "Scrub: silent-corruption detection, replica repair, quarantine", func(o Options) []*Table {
		return []*Table{scrubTable(o)}
	})
}

// The corruption-landing region: written exactly once and read exactly
// once by a directed guest program, far above the fio job region, so
// injected damage is never healed by a foreground rewrite and every
// cell's corruption trace is deterministic.
const (
	scrubWorkSet     = 4 << 20          // fio footprint, blocks [0, 8192)
	corruptBase      = (16 << 20) / 512 // first block of the directed region
	corruptOps       = 256              // directed 4 KiB writes, then reads
	corruptIOBlocks  = 8                // 4 KiB in 512 B device blocks
	corruptEndBlocks = corruptBase + corruptOps*corruptIOBlocks
)

// scrubPlan arms one corruption kind with a finite budget. Rates are per
// eligible store command; the directed phase issues corruptOps of each
// class, so the budget is always spent there (deterministically placed),
// never against the later fio window.
func scrubPlan(o Options, kind fault.Kind) *fault.Plan {
	p := fault.NewPlan(o.Seed)
	switch kind {
	case fault.BitRot:
		return p.WithBitRot(0.05, 4)
	case fault.TornWrite:
		return p.WithTornWrites(0.05, 4)
	case fault.MisdirectedWrite:
		return p.WithMisdirectedWrites(0.05, 4)
	case fault.LostWrite:
		return p.WithLostWrites(0.05, 4)
	}
	return p
}

// scrubCfg is the foreground workload: a mixed read/write zipf pattern so
// writes keep stamping PI while reads exercise the guest-boundary verify.
func scrubCfg(o Options) fio.Config {
	warm, dur := o.windows()
	return fio.Config{
		Mode: fio.RandRW, BlockSize: 4096, QD: 8,
		Warmup: warm, Duration: dur,
		WorkSet: scrubWorkSet, Zipf: 1.2,
	}
}

// scrubRun is one cell's outcome.
type scrubRun struct {
	res      fio.Result // foreground window (scrub active, corruption present)
	counters metrics.CounterSet
	drained  bool
	injected uint64  // corruptions the store actually injected
	phaseErr uint64  // directed-phase reads failed (guard caught rot in flight)
	detectUs float64 // first scrub-confirmed detection, µs after scrub start
	quarBlks uint64  // blocks quarantined at the end
	auditBad uint64  // stamped, unquarantined blocks failing PI at the end
	tailErr  uint64  // directed re-reads of the corrupt region that failed
	mirrorOK bool    // replica cells: protected content CRC-identical
	scr      *integrity.Scrubber
}

// scrubConfig returns the scrub policy for the harness: 400 MB/s of
// bandwidth so passes over the stamped extents finish well inside the run,
// with short pass intervals.
func scrubConfig() integrity.ScrubConfig {
	cfg := integrity.DefaultScrubConfig()
	cfg.Rate = 400e6
	cfg.Interval = sim.Millisecond
	return cfg
}

// corruptPattern is the directed-phase payload for op i: nonzero and
// distinct per op, so torn and lost writes always leave a detectable
// mismatch against the stamped expectation.
func corruptPattern(i int) []byte {
	buf := make([]byte, corruptIOBlocks*512)
	for k := range buf {
		buf[k] = byte(k*31 + i*7 + 11)
	}
	return buf
}

// stampedCRC fingerprints a store's PI-protected content: the CRC over
// every stamped block in LBA order. Unstamped blocks never traversed the
// mediation point, so they carry no expectation to converge on.
func stampedCRC(dom *integrity.Domain, st device.Store) uint32 {
	h := crc32.NewIEEE()
	blk := make([]byte, 512)
	for _, r := range dom.StampedRanges() {
		for i := uint64(0); i < r.Blocks; i++ {
			st.ReadBlocks(r.LBA+i, blk)
			h.Write(blk)
		}
	}
	return h.Sum32()
}

// runScrub builds a PI-protected stack (replicated when replica is set)
// over a store wrapped with the given corruption plan (nil = healthy),
// lands the corruption with the directed phase, runs the foreground
// workload with the scrubber in continuous mode when scrubOn, then
// drives scrub/resync to a fixpoint and audits the result.
func runScrub(o Options, plan *fault.Plan, replica, scrubOn bool) scrubRun {
	store := device.NewMemStore(512)
	var backing device.Store = store
	var cstore *integrity.CorruptingStore
	if plan != nil {
		cstore = integrity.NewCorruptingStore(store, plan, "store", 512, corruptEndBlocks)
		backing = cstore
	}
	env, h := newBed(o, backing)
	defer env.Close()
	v := h.NewVM(4, 512<<20)

	scrub := scrubConfig()
	spec := stack.Spec{Integrity: &scrub}
	var rstore *device.MemStore
	var m *mirror
	if replica {
		rstore = device.NewMemStore(512)
		m = newMirror(env, h, rstore, nil, nil)
		spec.Replicate = m.secondary
	}
	vol := stack.NewNVMetro(h).Attach(v, device.WholeNamespace(h.Dev, 1), spec)
	disk, vc, scr, dom, rs := vol.Disk, vol.Ctrl, vol.Scrubber, vol.Domain, vol.Resyncer

	out := scrubRun{mirrorOK: true, scr: scr}

	// Directed phase: write then read the corrupt region once each. The
	// plan's corruption budget is spent entirely here; a read that fails
	// is the guard catching rot in flight (honest error, not wrong data).
	sweep := func(p *sim.Proc, op vm.Op, errs *uint64) {
		vcpu := v.VCPU(0)
		base, pages, err := v.Mem.AllocBuffer(corruptIOBlocks * 512)
		if err != nil {
			panic(err)
		}
		for i := 0; i < corruptOps; i++ {
			if op == vm.OpWrite {
				v.Mem.WriteAt(corruptPattern(i), base)
			}
			r := &vm.Req{
				Op: op, LBA: corruptBase + uint64(i*corruptIOBlocks),
				Blocks: corruptIOBlocks, Buf: base, BufPages: pages,
			}
			if st := vm.SubmitAndWait(p, disk, vcpu, r); !st.OK() {
				if op == vm.OpWrite {
					panic(fmt.Sprintf("scrub: directed write @%d: %v", r.LBA, st))
				}
				*errs++
			}
		}
	}
	driveGuest(env, "scrub-corrupt", func(p *sim.Proc) {
		sweep(p, vm.OpWrite, nil)
		sweep(p, vm.OpRead, &out.phaseErr)
	})

	t0 := env.Now()
	if scrubOn {
		scr.Start()
	}
	cfg := scrubCfg(o)
	out.res = fio.Run(env, h.CPU, fio.Targets(v, disk, 4), cfg)
	out.drained = drainOutstanding(env, vc.Outstanding)

	// Drive scrub (and resync) to a fixpoint: repeat passes until one
	// finds no new suspects, then require the mirror drained to InSync.
	if scrubOn {
		scr.Stop()
		deadline := env.Now().Add(2 * sim.Second)
		const step = 100 * sim.Microsecond
		last, stable := scr.Suspects, 0
		for stable < 2 && env.Now() < deadline {
			target := scr.Passes + 1
			scr.Trigger()
			until(env, step, deadline, func() bool { return scr.Passes >= target })
			if rs != nil {
				driveInSync(env, rs, step, deadline)
			}
			if scr.Suspects == last {
				stable++
			} else {
				last, stable = scr.Suspects, 0
			}
		}
	}

	// Guest-visible audit: re-read the whole corrupt region. Repaired
	// blocks must serve clean; quarantined blocks must fail honestly.
	driveGuest(env, "scrub-audit", func(p *sim.Proc) {
		sweep(p, vm.OpRead, &out.tailErr)
	})
	out.drained = out.drained && drainOutstanding(env, vc.Outstanding)

	// Content audit against the PI table: a stamped block must either
	// verify or be quarantined — anything else is servable wrong data.
	blk := make([]byte, 512)
	for _, r := range dom.StampedRanges() {
		for i := uint64(0); i < r.Blocks; i++ {
			lba := r.LBA + i
			store.ReadBlocks(lba, blk)
			if !dom.VerifyBlock(lba, blk) && !dom.Quarantined(lba, 1) {
				out.auditBad++
			}
		}
	}
	out.quarBlks = dom.QuarantinedBlocks()
	if cstore != nil {
		out.injected = cstore.BitRots + cstore.TornWrites + cstore.Misdirected + cstore.LostWrites
	}
	if scr.Detected {
		out.detectUs = float64(scr.FirstDetectAt.Sub(t0)) / float64(sim.Microsecond)
	}
	if replica {
		out.mirrorOK = stampedCRC(dom, store) == stampedCRC(dom, rstore)
	}

	dom.Collect(&out.counters)
	scr.Collect(&out.counters)
	collectRouter(&out.counters, vc.Router())
	out.counters.Add("rt.guard_errors", vc.Router().GuardErrors)
	out.counters.Add("rt.quarantined_reads", vc.Router().QuarantinedReads)
	if replica {
		m.collect(&out.counters, vol)
		out.counters.Add("rep.guard_errors", vol.Replicator().GuardErrors)
	}
	out.counters.Add("fio.errors", out.res.Errors)
	out.counters.Add("audit.phase_errors", out.phaseErr)
	out.counters.Add("audit.tail_errors", out.tailErr)
	return out
}

// scrubCells returns the labeled corruption grid.
type scrubCell struct {
	name    string
	kind    fault.Kind
	replica bool
}

func scrubCells() []scrubCell {
	return []scrubCell{
		{"bitrot", fault.BitRot, true},
		{"torn-write", fault.TornWrite, true},
		{"misdirected", fault.MisdirectedWrite, true},
		{"lost-write", fault.LostWrite, true},
		{"bitrot no-replica", fault.BitRot, false},
	}
}

// scrubOK applies the per-cell acceptance invariants.
func scrubOK(c scrubCell, sr scrubRun) bool {
	ok := sr.drained && sr.injected > 0 && sr.auditBad == 0 && sr.scr.Detected
	if c.replica {
		// Repairable: everything converged, the protected content is
		// CRC-identical on both legs and the guest audit sweep served
		// every corrupt-region block without error.
		ok = ok && sr.mirrorOK && sr.quarBlks == 0 && sr.tailErr == 0 &&
			sr.scr.RepairedBlocks > 0
	} else {
		// Unrepairable: the damage is quarantined and the audit sweep saw
		// honest guest-visible media errors on it.
		ok = ok && sr.quarBlks > 0 && sr.tailErr > 0 &&
			sr.counters.Get("rt.quarantined_reads") > 0
	}
	return ok
}

// scrubTable runs the grid: a scrub-off and scrub-on healthy pair (the
// foreground-cost bound), then every corruption kind.
func scrubTable(o Options) *Table {
	t := &Table{
		ID:    "scrub",
		Title: "Scrub: end-to-end integrity — detection, replica repair, quarantine",
		Cols:  []string{"kIOPS", "p99us", "p99x", "inj", "detect", "detect_us", "repaired", "quar", "audit_bad", "tail_err", "ok"},
	}
	// The two healthy runs (scrub off, then on), then one per corruption
	// kind.
	kinds := scrubCells()
	runs := cells(o, 2+len(kinds), func(i int) scrubRun {
		if i < 2 {
			return runScrub(o, nil, true, i == 1)
		}
		c := kinds[i-2]
		return runScrub(o, scrubPlan(o, c.kind), c.replica, true)
	})
	base, on := runs[0], runs[1]
	p99x := func(r scrubRun) float64 {
		if b := base.res.Lat.P99(); b > 0 {
			return float64(r.res.Lat.P99()) / float64(b)
		}
		return 0
	}
	healthyOK := func(r scrubRun) float64 {
		return bit(r.drained && r.mirrorOK && r.auditBad == 0 && r.res.Errors == 0 &&
			r.phaseErr == 0 && r.tailErr == 0)
	}
	t.add("healthy scrub-off",
		base.res.KIOPS(), float64(base.res.Lat.P99())/1e3, 1, 0, 0, 0, 0, 0,
		float64(base.auditBad), float64(base.tailErr), healthyOK(base))
	t.add("healthy scrub-on",
		on.res.KIOPS(), float64(on.res.Lat.P99())/1e3, p99x(on), 0, 0, 0,
		float64(on.scr.RepairedBlocks), float64(on.quarBlks),
		float64(on.auditBad), float64(on.tailErr), healthyOK(on))
	for i, c := range kinds {
		sr := runs[2+i]
		t.add(c.name,
			sr.res.KIOPS(),
			float64(sr.res.Lat.P99())/1e3,
			p99x(sr),
			float64(sr.injected),
			float64(sr.scr.DetectedBlocks+sr.scr.ReplicaBad),
			sr.detectUs,
			float64(sr.scr.RepairedBlocks),
			float64(sr.quarBlks),
			float64(sr.auditBad),
			float64(sr.tailErr),
			bit(scrubOK(c, sr)))
	}
	t.Notes = "p99x vs healthy scrub-off same-seed baseline; ok = drained, detected, audit-clean, and (replica) repaired to CRC-identical protected content with an error-free guest audit / (no-replica) quarantined with guest-visible media errors"
	return t
}
