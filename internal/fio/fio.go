// Package fio reproduces the fio benchmark harness used in the paper's
// evaluation: random/sequential read/write/mixed workloads at configurable
// block sizes, queue depths and job counts, in closed-loop (throughput) or
// fixed-rate (latency) mode, with warmup, latency histograms and CPU
// accounting over the measurement window.
package fio

import (
	"fmt"
	"math/rand"

	"nvmetro/internal/guestmem"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// Mode is the workload pattern (fio's rw= parameter).
type Mode int

// Workload modes, matching Table II of the paper.
const (
	RandRead Mode = iota
	RandWrite
	RandRW
	SeqRead
	SeqWrite
	SeqRW
)

func (m Mode) String() string {
	switch m {
	case RandRead:
		return "RR"
	case RandWrite:
		return "RW"
	case RandRW:
		return "RRW"
	case SeqRead:
		return "SR"
	case SeqWrite:
		return "SW"
	case SeqRW:
		return "SRW"
	}
	return "?"
}

// random reports whether offsets are random.
func (m Mode) random() bool { return m <= RandRW }

// Config is one benchmark configuration.
type Config struct {
	Mode      Mode
	BlockSize uint32       // bytes per I/O
	QD        int          // iodepth per job
	RateIOPS  int          // fixed submission rate per job (0 = closed loop)
	Warmup    sim.Duration // discarded ramp-up
	Duration  sim.Duration // measurement window
	WorkSet   uint64       // bytes of device addressed per job (0 = 1 GiB)
	// Zipf skews random offsets with a zipfian distribution of parameter
	// s (> 1; fio's random_distribution=zipf:s). 0 keeps uniform offsets.
	// Low slot numbers are hottest, so the hot set sits at region start.
	Zipf float64
	// SharedOffsets makes every job address the same region (the first
	// WorkSet bytes of its disk) instead of splitting the region between
	// jobs — the boot-storm shape, where each tenant's disk is a clone of
	// one image and tenants read the same guest offsets.
	SharedOffsets bool
	// WritePct overrides the read/write split of the RandRW/SeqRW modes:
	// the percentage of operations that are writes (0 keeps the default
	// 50/50; RandRead/RandWrite-style modes ignore it).
	WritePct int
}

// BootProfile is the read-mostly boot-storm workload: every tenant walks
// the same guest offsets of its cloned image with a zipfian hot set (boot
// files), a small fraction of writes (logs, state) providing the CoW
// divergence, at 4 KiB with a modest queue depth.
func BootProfile(warmup, duration sim.Duration) Config {
	return Config{
		Mode:          RandRW,
		BlockSize:     4096,
		QD:            4,
		Warmup:        warmup,
		Duration:      duration,
		Zipf:          1.2,
		SharedOffsets: true,
		WritePct:      5,
	}
}

func (c Config) String() string {
	return fmt.Sprintf("bs=%d %v qd=%d", c.BlockSize, c.Mode, c.QD)
}

// Target is one fio job's placement: a disk as seen by a VM's vCPU.
type Target struct {
	Disk vm.Disk
	VM   *vm.VM
	VCPU *sim.Thread
}

// Targets places n jobs on v's disk, round-robin over its vCPUs.
func Targets(v *vm.VM, disk vm.Disk, n int) []Target {
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Disk: disk, VM: v, VCPU: v.VCPU(i % v.NumVCPUs())}
	}
	return targets
}

// Result aggregates a run.
type Result struct {
	metrics.Summary
	CPU    sim.CPUUsage
	PerJob []metrics.Summary
	Errors uint64
}

// job is one fio worker: a state machine on the simulator's callback tier
// (start, submit, resume), never a process. A submission is a continuation
// of the disk's SubmitFunc, a wait one of the completion condition's.
type job struct {
	cfg      Config
	t        Target
	env      *sim.Env
	regionLB uint64 // region start, in blocks
	regionNB uint64 // region size, in blocks
	seqCur   uint64
	zipf     *rand.Zipf

	comp     *sim.Cond
	measFrom sim.Time
	measTo   sim.Time

	ops    metrics.Counter
	bytes  metrics.Counter
	errors metrics.Counter
	lat    *metrics.Histogram

	bufs  []uint64
	pages [][]uint64
	stop  bool

	// Set up by start. One request per queue slot, re-armed at every
	// submission: a slot is free again only once its OnDone ran.
	blocks   uint32
	interval sim.Duration // between submissions when rate-limited, else 0
	nextAt   sim.Time     // the rate gate's next opening
	slots    []int        // free queue slots
	reqs     []vm.Req

	submitFn, resumeFn func()     // submit and resume, bound once
	wokeFn             func(bool) // woke, bound once
}

// Run executes cfg with one job per target, returning aggregate results.
// It must be called from outside process context (it drives env itself).
func Run(env *sim.Env, cpu *sim.CPU, targets []Target, cfg Config) Result {
	return RunMixed(env, cpu, []Group{{Targets: targets, Cfg: cfg}})[0]
}

// Group pairs one set of targets with its own workload configuration for a
// mixed run (e.g. a rate-gated latency-probe victim alongside a closed-loop
// aggressor).
type Group struct {
	Name    string
	Targets []Target
	Cfg     Config
}

// RunMixed executes several groups concurrently over one shared measurement
// window and returns one aggregate Result per group, in order. The warmup
// and duration are taken from the first group's config and applied to all;
// the CPU usage reported is the whole host's over the window, identical in
// every Result. Jobs within a group split the addressable region between
// themselves; groups are expected to target disjoint disks.
func RunMixed(env *sim.Env, cpu *sim.CPU, groups []Group) []Result {
	start := env.Now()
	measFrom := start.Add(groups[0].Cfg.Warmup)
	measTo := measFrom.Add(groups[0].Cfg.Duration)
	window := groups[0].Cfg.Duration

	jobsPer := newJobs(env, groups, measFrom, measTo)
	for _, jobs := range jobsPer {
		for _, j := range jobs {
			env.After(0, j.start)
		}
	}

	env.RunUntil(measFrom)
	snap := cpu.Snapshot()
	env.RunUntil(measTo)
	usage := cpu.Since(snap)

	out := make([]Result, len(groups))
	for gi, jobs := range jobsPer {
		res := Result{CPU: usage}
		res.Lat = metrics.NewHistogram()
		res.WindowSec = window.Seconds()
		for _, j := range jobs {
			j.stop = true
			s := metrics.Summary{Ops: j.ops.Value(), Bytes: j.bytes.Value(), WindowSec: window.Seconds(), Lat: j.lat}
			res.PerJob = append(res.PerJob, s)
			res.Ops += s.Ops
			res.Bytes += s.Bytes
			res.Errors += j.errors.Value()
			res.Lat.Merge(j.lat)
		}
		res.CPUCores = res.CPU.Cores()
		out[gi] = res
	}
	return out
}

// newJobs builds one job per target of every group, with its region of the
// disk and its guest buffers, counting what completes in (measFrom, measTo].
//
// A job's buffers are one guest region of QD slots. When the block size
// divides the guest page (and is whole disk blocks, so a transfer is exactly
// one slot), slot s lies at region + s·BlockSize, packed as fio's iomem lays
// out io_u buffers: a 512 B, QD128 job takes 16 pages, not 128, and each
// slot stays inside one page. Any other block size keeps a page-aligned slot
// of whole pages, as it always had, so a buffer spans the same pages and
// every PRP list and virtio chain keeps its length. Buffers are not reused
// from one RunMixed to the next: the previous call's in-flight commands still
// DMA into its buffers, and nothing drains them between calls.
func newJobs(env *sim.Env, groups []Group, measFrom, measTo sim.Time) [][]*job {
	jobsPer := make([][]*job, len(groups))
	var fill []byte // each slot's pattern, built here and copied into guest memory
	for gi := range groups {
		cfg := groups[gi].Cfg
		if cfg.WorkSet == 0 {
			cfg.WorkSet = 1 << 30
		}
		targets := groups[gi].Targets
		for i, t := range targets {
			blocksPer := cfg.WorkSet / uint64(t.Disk.BlockSize())
			total := t.Disk.Blocks()
			regionLB := uint64(i) * blocksPer
			if cfg.SharedOffsets {
				// Every job addresses the same leading extent of its own
				// disk (tenant disks are clones of one image).
				if blocksPer > total {
					blocksPer = total
				}
				regionLB = 0
			} else if blocksPer*uint64(len(targets)) > total {
				blocksPer = total / uint64(len(targets))
				regionLB = uint64(i) * blocksPer
			}
			j := &job{
				cfg: cfg, t: t, env: env,
				regionLB: regionLB,
				regionNB: blocksPer,
				comp:     sim.NewCond(env),
				measFrom: measFrom,
				measTo:   measTo,
				lat:      metrics.NewHistogram(),
			}
			bs := cfg.BlockSize
			if bs != 0 && guestmem.PageSize%bs == 0 && bs%t.Disk.BlockSize() == 0 {
				region, _, err := t.VM.Mem.AllocBuffer(uint32(cfg.QD) * bs)
				if err != nil {
					panic(err)
				}
				j.bufs = make([]uint64, cfg.QD)
				for s := range j.bufs {
					j.bufs[s] = region + uint64(s)*uint64(bs)
					j.pages = append(j.pages, j.bufs[s:s+1:s+1])
				}
			} else {
				for range cfg.QD {
					base, pages, err := t.VM.Mem.AllocBuffer(bs)
					if err != nil {
						panic(err)
					}
					j.bufs = append(j.bufs, base)
					j.pages = append(j.pages, pages)
				}
			}
			// Non-zero payload so encryption paths work on real data.
			if cap(fill) < int(bs) {
				fill = make([]byte, bs)
			}
			fill = fill[:bs]
			for s, base := range j.bufs {
				for k := range fill {
					fill[k] = byte(k*7 + i + s)
				}
				t.VM.Mem.WriteAt(fill, base)
			}
			jobsPer[gi] = append(jobsPer[gi], j)
		}
	}
	return jobsPer
}

// nextLBA picks the next I/O location, in disk blocks.
func (j *job) nextLBA(blocks uint32) uint64 {
	if j.regionNB <= uint64(blocks) {
		return j.regionLB
	}
	if j.cfg.Mode.random() {
		slots := j.regionNB / uint64(blocks)
		if j.cfg.Zipf > 1 {
			if j.zipf == nil {
				j.zipf = rand.NewZipf(j.env.Rand(), j.cfg.Zipf, 1, slots-1)
			}
			return j.regionLB + j.zipf.Uint64()*uint64(blocks)
		}
		return j.regionLB + uint64(j.env.Rand().Int63n(int64(slots)))*uint64(blocks)
	}
	lba := j.regionLB + j.seqCur
	j.seqCur += uint64(blocks)
	if j.seqCur+uint64(blocks) > j.regionNB {
		j.seqCur = 0
	}
	return lba
}

// nextOp picks read or write according to the mode.
func (j *job) nextOp() vm.Op {
	switch j.cfg.Mode {
	case RandRead, SeqRead:
		return vm.OpRead
	case RandWrite, SeqWrite:
		return vm.OpWrite
	default:
		if pct := j.cfg.WritePct; pct > 0 {
			if j.env.Rand().Intn(100) < pct {
				return vm.OpWrite
			}
			return vm.OpRead
		}
		if j.env.Rand().Intn(2) == 0 {
			return vm.OpRead
		}
		return vm.OpWrite
	}
}

// start is the job's set-up, run where its first event falls.
func (j *job) start() {
	bs := j.t.Disk.BlockSize()
	j.blocks = j.cfg.BlockSize / bs
	if j.blocks == 0 {
		j.blocks = 1
	}
	if j.cfg.RateIOPS > 0 {
		j.interval = sim.Duration(int64(sim.Second) / int64(j.cfg.RateIOPS))
	}
	j.nextAt = j.env.Now()
	j.slots = make([]int, 0, j.cfg.QD)
	j.reqs = make([]vm.Req, j.cfg.QD)
	for s := range j.reqs {
		slot := s
		j.reqs[s] = vm.Req{Blocks: j.blocks, Buf: j.bufs[s], BufPages: j.pages[s]}
		j.reqs[s].OnDone = func(done *vm.Req) {
			j.slots = append(j.slots, slot)
			if done.Completed > j.measFrom && done.Completed <= j.measTo {
				if done.Status.OK() {
					j.ops.Inc()
					j.bytes.Add(uint64(j.cfg.BlockSize))
					j.lat.Record(int64(done.Latency()))
				} else {
					j.errors.Inc()
				}
			}
			j.comp.Signal(nil)
		}
		j.slots = append(j.slots, s)
	}
	j.submitFn, j.resumeFn, j.wokeFn = j.submit, j.resume, j.woke
	j.resume()
}

// resume is the top of the job's loop, where a wait ends: it goes on unless
// the run has stopped it.
func (j *job) resume() {
	if !j.stop {
		j.submit()
	}
}

func (j *job) woke(bool) { j.resume() }

// submit submits one request while a slot is free and the rate gate is open,
// and comes back here once the disk has taken it; otherwise it waits for a
// completion, or for a completion or the next rate slot, whichever is first.
func (j *job) submit() {
	now := j.env.Now()
	if len(j.slots) > 0 && !j.stop && (j.interval == 0 || now >= j.nextAt) {
		slot := j.slots[len(j.slots)-1]
		j.slots = j.slots[:len(j.slots)-1]
		j.nextAt = j.nextAt.Add(j.interval)
		if j.interval > 0 && j.nextAt < now {
			j.nextAt = now // do not accumulate missed slots
		}
		r := &j.reqs[slot]
		r.Reset()
		r.Op = j.nextOp()
		r.LBA = j.nextLBA(j.blocks)
		j.t.Disk.SubmitFunc(j.t.VCPU, r, j.submitFn)
		return
	}
	if j.interval == 0 || len(j.slots) == 0 {
		j.comp.WaitFunc(j.resumeFn)
		return
	}
	if wait := j.nextAt.Sub(now); wait > 0 {
		j.comp.WaitTimeoutFunc(wait, j.wokeFn)
		return
	}
	j.resume()
}
