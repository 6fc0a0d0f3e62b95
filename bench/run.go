package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
)

// runConfig is everything one measuring process is told.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   float64       // nominal host seconds of this process's measured call
	Trace     bool          // record spans, run the slice probe and the layer probes
	PollVQ    sim.Duration  // -selfcheck: override Params.Router.PollVQ
	ProbeTime time.Duration // host time each layer probe runs for
	TraceFile string        // where the traced run writes its spans
	Profile   string        // CPU profile of the measured call, "" for none
	RefWallNS float64       // wall_ns_per_io of the untraced child run just before, for trace.overhead_pct and attr.*
	T0        time.Time     // child start
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one measuring process hands back to the runner.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"digest"`
	Noisy     bool              `json:"noisy"`
	Problems  []string          `json:"problems,omitempty"`
	WallS     float64           `json:"wall_s"` // host time of the measured call
	// RefWallNS is, in a traced run, the untraced wall_ns_per_io it was
	// compared against.
	RefWallNS float64 `json:"ref_wall_ns_per_io,omitempty"`
	// PerChild holds, for an untraced run, each child's end-to-end values;
	// Metrics holds their medians.
	PerChild map[string][]float64 `json:"per_child,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// window returns the workload's virtual measurement window for the config.
func (c runConfig) window(w workload) sim.Duration {
	d := sim.Duration(float64(w.virtPerSec) * c.Seconds)
	if d < 200*sim.Microsecond {
		d = 200 * sim.Microsecond
	}
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is ru_maxrss, which Linux reports in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUSeconds is the CPU time the Go runtime has charged to the collector.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runFIO runs the rig's groups over one window of virtual time.
func (r *rig) runFIO(d sim.Duration) []fio.Result {
	groups := append([]fio.Group(nil), r.groups...)
	groups[0].Cfg.Duration = d // RunMixed takes the shared window from group 0
	return fio.RunMixed(r.env, r.host.CPU, groups)
}

// drain steps virtual time until every controller has nothing in flight and
// returns how many commands were still outstanding when it gave up.
func (r *rig) drain() int {
	deadline := r.env.Now().Add(2 * sim.Second)
	for {
		left := 0
		for _, vc := range r.ctrls {
			left += vc.Outstanding()
		}
		if left == 0 || r.env.Now() >= deadline {
			return left
		}
		r.env.RunUntil(r.env.Now().Add(sim.Millisecond))
	}
}

// numSlices is the number of equal virtual-time slices the traced run splits
// the measured window into.
const numSlices = 100

// runWorkload is the body of one measuring process: set-up with a warm-up
// call, the measured call, teardown, and in the traced run the layer probes.
func runWorkload(cfg runConfig) (*result, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &result{Workload: w.name, Trace: cfg.Trace, Metrics: map[string]metric{}}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(w.name, cfg.T0)
	}
	window := cfg.window(w)

	// Set-up: construction, attach, and a warm-up call of 10 % of the
	// measured window so caches, the goroutine pool and the heap are at
	// steady state when the measured call starts (and setup_s is over 1 s).
	spSetup := tr.begin("setup")
	r := w.build(&builder{seed: cfg.Seed, pollVQ: cfg.PollVQ, tr: tr})
	sp := tr.begin("fio.warmup")
	r.runFIO(window / 10)
	sp.end()
	spSetup.end()
	setupS := time.Since(cfg.T0).Seconds()

	if cfg.Profile != "" {
		f, err := os.Create(cfg.Profile)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	// The slice probe: a benchmark-owned sim process that sleeps to equal
	// virtual-time boundaries and reads the host clock. It touches no model
	// state and draws no random numbers, so it costs zero virtual time.
	var marks []time.Time
	if cfg.Trace {
		marks = make([]time.Time, 0, numSlices)
		step := window / numSlices
		r.env.Go("bench-slices", func(p *sim.Proc) {
			for i := 1; i < numSlices; i++ {
				p.Sleep(step)
				marks = append(marks, time.Now())
			}
		})
	}

	before := r.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	spMeasure := tr.begin("measure")
	cpu0 := cpuTime()
	start := time.Now()
	out := r.runFIO(window)
	end := time.Now()
	cpu := cpuTime() - cpu0
	spMeasure.end()
	if cfg.Profile != "" {
		pprof.StopCPUProfile()
	}
	gcCPU := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	goroutines := runtime.NumGoroutine()
	wall := end.Sub(start)

	spTear := tr.begin("teardown")
	sp = tr.begin("core.drain")
	left := r.drain()
	sp.end()
	after := r.counters()
	sp = tr.begin("sim.close")
	r.env.Close()
	sp.end()
	spTear.end()
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	rss := peakRSSMiB()

	var ops, errs uint64
	for _, g := range out {
		ops += g.Ops
		errs += g.Errors
	}
	d := after.sub(before)
	res.Attempted = ops + errs + uint64(left)
	res.Failed = errs + uint64(left) + d.guardBad
	if errs > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d guest-visible non-OK completions", errs))
	}
	if left > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d commands outstanding after drain", left))
	}
	if d.guardBad > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("integrity.guard_bad=%d", d.guardBad))
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: no I/O completed in the measured window", w.name)
	}
	ios := float64(ops)
	res.WallS = wall.Seconds()
	res.Digest = modelDigest(out, d)

	wallNS := float64(wall.Nanoseconds()) / ios
	res.set("wall_ns_per_io", wallNS, "ns")
	res.set("cpu_ns_per_io", float64(cpu.Nanoseconds())/ios, "ns")
	res.set("peak_rss_mb", rss, "MiB")
	res.set("setup_s", setupS, "s")

	modelMetrics(res, r.groups, out, window)

	res.set("runtime.allocs_per_io", float64(ms1.Mallocs-ms0.Mallocs)/ios, "count")
	res.set("runtime.alloc_bytes_per_io", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ios, "B")
	res.set("runtime.gc_cycles_per_mio", float64(ms1.NumGC-ms0.NumGC)/ios*1e6, "count")
	res.set("runtime.gc_cpu_pct", 100*gcCPU/cpu.Seconds(), "%")
	res.set("runtime.live_heap_mb", float64(ms2.HeapAlloc)/(1<<20), "MiB")
	res.set("runtime.goroutines", float64(goroutines), "count")

	res.set("core.classifications_per_io", float64(d.classifications)/ios, "count")
	res.set("core.fastpath_per_io", float64(d.fastPath)/ios, "count")
	res.set("core.notify_per_io", float64(d.notifyPath)/ios, "count")
	res.set("core.promoted_per_io", float64(d.promotedOps)/ios, "count")
	res.set("core.backpressure_per_kio", float64(d.backpressure)/ios*1e3, "count")
	res.set("core.guest_errors", float64(d.guestErrors), "count")
	res.set("cow.breaks_per_kio", float64(d.cowBreaks)/ios*1e3, "count")
	res.set("cow.unique_chunks", float64(after.uniqueChunks), "count")
	hitRatio := 0.0
	if n := d.cacheHits + d.cacheMisses; n > 0 {
		hitRatio = float64(d.cacheHits) / float64(n)
	}
	res.set("cache.hit_ratio", hitRatio, "ratio")
	res.set("integrity.guard_bad", float64(d.guardBad), "count")

	if !cfg.Trace {
		return res, nil
	}

	// Slices: the window's host time cut at the 99 boundaries plus its end.
	marks = append(marks, end)
	prev := start
	sliceMS := make([]float64, 0, len(marks))
	for _, m := range marks {
		tr.leaf(spMeasure, "fio.slice", prev, m)
		sliceMS = append(sliceMS, float64(m.Sub(prev).Nanoseconds())/1e6)
		prev = m
	}
	p25, p50, p75 := quantile(sliceMS, 0.25), quantile(sliceMS, 0.5), quantile(sliceMS, 0.75)
	res.set("measure.slice_p50_ms", p50, "ms")
	res.set("measure.slice_p95_ms", quantile(sliceMS, 0.95), "ms")
	iqrPct := 100 * (p75 - p25) / p50
	res.set("measure.slice_iqr_pct", iqrPct, "%")
	res.Noisy = iqrPct > 10

	res.set("stack.new_host_ms", tr.total("stack.new_host")*1e3, "ms")
	res.set("cow.golden_image_ms", tr.total("cow.golden_image")*1e3, "ms")
	res.set("stack.attach_us_per_vm", tr.total("stack.attach")*1e6/float64(len(r.ctrls)), "us")
	res.set("fio.warmup_s", tr.total("fio.warmup"), "s")
	res.set("core.drain_ms", tr.total("core.drain")*1e3, "ms")
	res.set("sim.close_ms", tr.total("sim.close")*1e3, "ms")

	ref := cfg.RefWallNS
	if ref <= 0 {
		ref = wallNS
	}
	res.RefWallNS = ref
	res.set("trace.overhead_pct", 100*(wallNS/ref-1), "%")

	runProbes(res, tr, cfg.ProbeTime)
	attribute(res, ref, d, r.groups, out, ios)

	if cfg.TraceFile != "" {
		if err := tr.write(cfg.TraceFile); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}
	return res, nil
}

// counterSnap is the layers' public counters at one instant.
type counterSnap struct {
	classifications, fastPath, notifyPath, kernelPath, immediate uint64
	promotedOps, promotions, demotions                           uint64
	backpressure, guestErrors                                    uint64

	cacheHits, cacheMisses uint64
	cowBreaks, cowReads    uint64
	uniqueChunks           uint64
	guardBad, guardChecked uint64
	stamped                uint64
	qosAdmitted            uint64
}

func (r *rig) counters() counterSnap {
	var s counterSnap
	for _, rt := range r.routers {
		s.classifications += rt.Classifications
		s.fastPath += rt.FastPath
		s.notifyPath += rt.NotifyPath
		s.kernelPath += rt.KernelPath
		s.immediate += rt.Immediate
		s.promotedOps += rt.PromotedOps
		s.promotions += rt.Promotions
		s.demotions += rt.Demotions
		s.backpressure += rt.Backpressure
		s.guestErrors += rt.GuestErrors
		var cs metrics.CounterSet
		rt.CollectQoS(&cs)
		for _, n := range cs.Names() {
			if strings.HasSuffix(n, "_admitted") {
				s.qosAdmitted += cs.Get(n)
			}
		}
	}
	for _, c := range r.cachers {
		s.cacheHits += c.Cache().Hits()
		s.cacheMisses += c.Cache().Misses()
	}
	for _, img := range r.images {
		var cs metrics.CounterSet
		img.Collect(&cs)
		s.cacheHits += cs.Get("cow.cache.hits")
		s.cacheMisses += cs.Get("cow.cache.misses")
		s.uniqueChunks += cs.Get("cow.index.chunks")
	}
	for _, st := range r.clones {
		s.cowBreaks += st.CowBreaks
		s.cowReads += st.SharedReads + st.PrivateReads + st.BaseReads
	}
	for _, dom := range r.domains {
		var cs metrics.CounterSet
		dom.Collect(&cs)
		for _, n := range cs.Names() {
			switch {
			case n == "pi.stamped" || n == "pi.quarantined":
			case strings.HasSuffix(n, ".bad"):
				s.guardBad += cs.Get(n)
				s.guardChecked += cs.Get(n)
			case strings.HasSuffix(n, ".ok"):
				s.guardChecked += cs.Get(n)
			case strings.HasSuffix(n, ".stamped"):
				s.stamped += cs.Get(n)
			}
		}
	}
	return s
}

// sub returns the counters accumulated since o; unique_chunks is a gauge and
// is kept as is.
func (s counterSnap) sub(o counterSnap) counterSnap {
	return counterSnap{
		classifications: s.classifications - o.classifications,
		fastPath:        s.fastPath - o.fastPath,
		notifyPath:      s.notifyPath - o.notifyPath,
		kernelPath:      s.kernelPath - o.kernelPath,
		immediate:       s.immediate - o.immediate,
		promotedOps:     s.promotedOps - o.promotedOps,
		promotions:      s.promotions - o.promotions,
		demotions:       s.demotions - o.demotions,
		backpressure:    s.backpressure - o.backpressure,
		guestErrors:     s.guestErrors - o.guestErrors,
		cacheHits:       s.cacheHits - o.cacheHits,
		cacheMisses:     s.cacheMisses - o.cacheMisses,
		cowBreaks:       s.cowBreaks - o.cowBreaks,
		cowReads:        s.cowReads - o.cowReads,
		uniqueChunks:    s.uniqueChunks,
		guardBad:        s.guardBad - o.guardBad,
		guardChecked:    s.guardChecked - o.guardChecked,
		stamped:         s.stamped - o.stamped,
		qosAdmitted:     s.qosAdmitted - o.qosAdmitted,
	}
}

// modelMetrics reports the virtual-clock results. They repeat exactly for a
// seed, so they are a layer (what the modelled system did), not an
// end-to-end metric of this benchmark.
func modelMetrics(res *result, groups []fio.Group, out []fio.Result, window sim.Duration) {
	var ops uint64
	lat := metrics.NewHistogram()
	for _, g := range out {
		ops += g.Ops
		lat.Merge(g.Lat)
	}
	ios := float64(ops)
	res.set("model.kiops", ios/window.Seconds()/1e3, "kIOPS")
	res.set("model.lat_p50_us", float64(lat.Median())/1e3, "us")
	res.set("model.lat_p99_us", float64(lat.P99())/1e3, "us")
	cpu := out[0].CPU // RunMixed reports the whole host's usage in every result
	res.set("model.cpu_us_per_io", float64(cpu.Total())/1e3/ios, "us")
	res.set("model.cpu_router_us_per_io", float64(cpu.ByTag["router"]+cpu.ByTag["shard"])/1e3/ios, "us")
	res.set("model.cpu_uif_us_per_io", float64(cpu.ByTag["uif"])/1e3/ios, "us")
	p99 := map[string]float64{}
	for i, g := range out {
		p99[groups[i].Name] = float64(g.Lat.P99()) / 1e3
	}
	res.set("model.enc_lat_p99_us", p99["enc"], "us")
	res.set("model.repl_lat_p99_us", p99["repl"], "us")
	res.set("model.cache_lat_p99_us", p99["cache"], "us")
}

// modelDigest hashes everything the virtual clock produced in the measured
// window: per group ops, errors, bytes and the latency distribution, CPU by
// tag, and the routers' counters. A change that only makes the simulator
// faster must leave it identical.
func modelDigest(out []fio.Result, d counterSnap) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, g := range out {
		put(g.Ops, g.Errors, g.Bytes, g.Lat.Count(), uint64(g.Lat.Min()), uint64(g.Lat.Max()),
			math.Float64bits(g.Lat.Mean()))
		// The histogram's buckets are not exported; a 1000-point quantile
		// sweep reads every occupied bucket boundary it can resolve.
		for q := 0; q <= 1000; q++ {
			put(uint64(g.Lat.Quantile(float64(q) / 1000)))
		}
	}
	cpu := out[0].CPU
	tags := make([]string, 0, len(cpu.ByTag))
	for t := range cpu.ByTag {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	for _, t := range tags {
		h.Write([]byte(t))
		put(uint64(cpu.ByTag[t]))
	}
	put(d.classifications, d.fastPath, d.notifyPath, d.kernelPath, d.immediate,
		d.promotedOps, d.promotions, d.demotions, d.backpressure, d.guestErrors,
		d.cacheHits, d.cacheMisses, d.cowBreaks, d.cowReads, d.uniqueChunks,
		d.guardBad, d.guardChecked, d.stamped, d.qosAdmitted)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// attribute multiplies each layer's calls per I/O (from its counters over
// the measured window) by its probed cost per call. What the listed layers
// do not explain is unattributed, so the column sums to wall_ns_per_io.
func attribute(res *result, wallNS float64, d counterSnap, groups []fio.Group, out []fio.Result, ios float64) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	ebpf := float64(d.classifications) / ios * m("ebpf.run_compiled_ns")
	var xts float64
	for i, g := range groups {
		if g.Name == "enc" { // every I/O of the encrypted group is one 4 KiB XTS pass
			xts = float64(out[i].Ops) / ios * (m("xts.encrypt_4k_ns") + m("xts.decrypt_4k_ns")) / 2
		}
	}
	cow := float64(d.cowReads)/ios*m("cow.read_shared_4k_ns") + float64(d.cowBreaks)/ios*m("cow.write_break_ns")
	// Guards count 512 B blocks; the probes time 4 KiB (8 blocks) per call.
	integ := float64(d.guardChecked)/8/ios*m("integrity.verify_4k_ns") + float64(d.stamped)/8/ios*m("integrity.stamp_4k_ns")
	qos := float64(d.qosAdmitted) / ios * m("qos.admit_ns")
	res.set("attr.ebpf_ns_per_io", ebpf, "ns")
	res.set("attr.xts_ns_per_io", xts, "ns")
	res.set("attr.cow_ns_per_io", cow, "ns")
	res.set("attr.integrity_ns_per_io", integ, "ns")
	res.set("attr.qos_ns_per_io", qos, "ns")
	res.set("attr.unattributed_ns_per_io", wallNS-(ebpf+xts+cow+integ+qos), "ns")
}
