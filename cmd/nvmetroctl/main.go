// nvmetroctl demonstrates NVMetro's control plane: it brings up a simulated
// host, attaches VMs with virtual NVMe controllers, installs a storage
// function (classifier + UIF) and drives a short workload, then reports
// router statistics — the administrator's view of the system.
//
// Usage:
//
//	nvmetroctl -vms 2 -function encryption -duration 20ms
//	nvmetroctl -function replication
//	nvmetroctl -function none -mode randwrite
//	nvmetroctl qos [-vms 3] [-duration 20ms]
//	nvmetroctl chaos [-function encryption] [-fault crash] [-duration 20ms]
//	nvmetroctl scrub [-fault bitrot] [-replica=false] [-duration 20ms]
//	nvmetroctl snap [-vms 8] [-image 16] [-duration 20ms]
//	nvmetroctl shard [-vms 8] [-shards 2] [-duration 20ms] [-swap=false]
//
// The shard subcommand brings up the per-core sharded dispatch fleet:
// tenants spread least-loaded over the shards, each on its own whole
// namespace so the statically-provable default classifier promotes them to
// the direct SQ→HSQ mapping. After the workload it dumps the fleet view —
// per-shard tenant assignment, promotion tier, inbox depths — and,
// with -swap, hot-swaps vm0's classifier to demonstrate the demotion fence
// and the deferred re-promotion.
//
// The snap subcommand seals a golden image, clones one namespace per
// tenant VM from it, drives the read-mostly boot-storm profile and dumps
// the snapshot/clone view: the sealed layer chain with per-layer refcounts,
// shared-index dedup and cache counters, and per-tenant CoW-break and
// divergence state.
//
// The qos subcommand brings up multiple tenants with different QoS
// contracts on one shared router worker, drives a contended workload and
// dumps the arbiter state: per-tenant weights, token-bucket levels and SLO
// attainment.
//
// The scrub subcommand attaches a PI-protected (optionally replicated)
// disk over a silently-corrupting backing store, runs a workload, drives
// the background scrubber to convergence and dumps the integrity view:
// verification counters per trust boundary, detections, repairs and
// quarantined ranges.
//
// The chaos subcommand runs a storage function under UIF supervision,
// injects a crash or wedge into its UIF mid-workload and dumps the
// supervisor's view: detection, reconciliation verdicts, degraded time and
// restarts, plus the fault injector's fire counts.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nvmetro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "qos" {
		qosCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		chaosCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scrub" {
		scrubCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "snap" {
		snapCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		shardCmd(os.Args[2:])
		return
	}
	var (
		nvms     = flag.Int("vms", 2, "number of VMs to attach")
		function = flag.String("function", "none", "storage function: none | encryption | sgx | replication")
		mode     = flag.String("mode", "randread", "workload: randread | randwrite | seqread | seqwrite")
		dur      = flag.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		qd       = flag.Int("qd", 32, "queue depth")
		bs       = flag.Int("bs", 4096, "block size")
	)
	flag.Parse()

	var fioMode = map[string]int{"randread": 0, "randwrite": 1, "seqread": 3, "seqwrite": 4}
	mnum, ok := fioMode[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := nvmetro.Defaults()
	cfg.GuestCores = *nvms // one vCPU per VM in this demo
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	fmt.Printf("host: %d cores, device %q\n", cfg.Cores, sys.DeviceUnderTest().Identify().Model)

	var remote *nvmetro.RemoteHost
	if *function == "replication" {
		remote = sys.NewRemoteHost(4)
		fmt.Println("remote host attached over NVMe-oF fabric")
	}

	parts := sys.CarveDisk(*nvms)
	var spec nvmetro.Spec
	switch *function {
	case "encryption", "sgx":
		spec.Encrypt = &nvmetro.Encryption{Key: bytes.Repeat([]byte{0x42}, 64), SGX: *function == "sgx"}
	case "replication":
		spec.Replicate = remote
	}
	var disks []*nvmetro.Volume
	for i := 0; i < *nvms; i++ {
		d := must(sys.Attach(sys.NewVM(1, 32<<20), parts[i], spec))
		disks = append(disks, d)
		fmt.Printf("vm%d: virtual NVMe controller attached over partition [%d, +%d blocks), function=%s\n",
			i, parts[i].Start, parts[i].Blocks, *function)
	}

	var targets []nvmetro.FIOTarget
	for _, d := range disks {
		targets = append(targets, d.Targets(1)...)
	}
	fc := nvmetro.FIOConfig{
		BlockSize: uint32(*bs),
		QD:        *qd,
		Warmup:    2 * nvmetro.Millisecond,
		Duration:  nvmetro.Duration(dur.Nanoseconds()),
	}
	switch mnum {
	case 0:
		fc.Mode = nvmetro.RandRead
	case 1:
		fc.Mode = nvmetro.RandWrite
	case 3:
		fc.Mode = nvmetro.SeqRead
	case 4:
		fc.Mode = nvmetro.SeqWrite
	}

	fmt.Printf("\nrunning %s bs=%d qd=%d over %d VM(s)...\n", *mode, *bs, *qd, *nvms)
	res := sys.RunFIO(fc, targets)
	fmt.Printf("\nresults: %.1f kIOPS, %.1f MB/s, p50=%.1fus p99=%.1fus\n",
		res.KIOPS(), res.MBps(), float64(res.Lat.Median())/1e3, float64(res.Lat.P99())/1e3)
	fmt.Printf("whole-system CPU: %.2f cores busy\n", res.CPUCores)
	for _, tag := range res.CPU.Tags() {
		fmt.Printf("  %-16s %8.3f core-seconds/sec\n", tag, float64(res.CPU.ByTag[tag])/float64(res.CPU.Window))
	}
	if res.Errors > 0 {
		fmt.Printf("I/O errors: %d\n", res.Errors)
		os.Exit(1)
	}
}

// must exits on an Attach error: every Spec here is fixed by the flags.
func must(v *nvmetro.Volume, err error) *nvmetro.Volume {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return v
}

// shardCmd is the `nvmetroctl shard` subcommand: a sharded-fleet demo and
// state dump — per-shard tenant assignment, promotion tier and inbox
// depths, plus an optional live demotion/re-promotion episode.
func shardCmd(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	var (
		nvms   = fs.Int("vms", 8, "number of tenant VMs")
		shards = fs.Int("shards", 0, "dispatch shards (0 = one per 4 VMs, min 2)")
		dur    = fs.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		qd     = fs.Int("qd", 4, "queue depth per tenant")
		bs     = fs.Int("bs", 4096, "block size")
		seed   = fs.Int64("seed", 1, "simulation seed")
		swap   = fs.Bool("swap", true, "hot-swap vm0's classifier after the run (demotion fence demo)")
	)
	fs.Parse(args)

	n := *shards
	if n <= 0 {
		n = (*nvms + 3) / 4
		if n < 2 {
			n = 2
		}
	}
	cfg := nvmetro.Defaults()
	cfg.Seed = *seed
	cfg.GuestCores = *nvms
	cfg.Cores = *nvms + n + 2 // one core per shard plus slack
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	pool := sys.NewNVMetroSharded(n)
	fmt.Printf("host: %d cores, %d dispatch shards, path promotion enabled\n", cfg.Cores, n)

	var disks []*nvmetro.Volume
	var targets []nvmetro.FIOTarget
	for i := 0; i < *nvms; i++ {
		v := sys.NewVM(1, 32<<20)
		part := sys.AddNamespace(1 << 18) // whole namespace: promotable layout
		d := must(sys.Attach(v, part, nvmetro.Spec{Pool: pool}))
		disks = append(disks, d)
		targets = append(targets, d.Targets(1)...)
		fmt.Printf("vm%d: whole namespace %d, shard %d\n", i, part.NSID, d.Ctrl.WorkerID())
	}

	fmt.Printf("\nrunning randread bs=%d qd=%d over %d tenant(s)...\n", *bs, *qd, *nvms)
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: uint32(*bs), QD: *qd,
		Warmup: 2 * nvmetro.Millisecond, Duration: nvmetro.Duration(dur.Nanoseconds()),
	}, targets)
	fmt.Printf("results: %.1f kIOPS, p50=%.1fus p99=%.1fus, guest errors=%d\n\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, float64(res.Lat.P99())/1e3, res.Errors)
	fmt.Print(pool.Dump())

	if !*swap {
		return
	}
	// The demotion fence, live: installing a map-dependent classifier on a
	// promoted tenant must demote it synchronously — before the new program
	// can see a single command — and restoring a provably-constant program
	// re-promotes through the shard's control inbox.
	vc := disks[0].Ctrl
	prog := nvmetro.PartitionClassifier(vc.Partition())
	fmt.Println("\nhot-swap: loading the partition classifier on vm0 (unprovable verdict)...")
	if err := vc.LoadClassifier(prog); err != nil {
		panic(err)
	}
	fmt.Printf("vm0 promoted=%v (demoted synchronously, fence closed)\n", vc.Promoted())
	sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: uint32(*bs), QD: *qd,
		Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
	}, targets)
	fmt.Println("\nrestoring the default classifier on vm0...")
	if err := vc.LoadClassifier(nvmetro.DefaultClassifier()); err != nil {
		panic(err)
	}
	sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: uint32(*bs), QD: *qd,
		Warmup: nvmetro.Millisecond, Duration: 4 * nvmetro.Millisecond,
	}, targets)
	fmt.Printf("vm0 promoted=%v (re-promoted through the control inbox)\n\n", vc.Promoted())
	fmt.Print(pool.Dump())
}

// chaosCmd is the `nvmetroctl chaos` subcommand: run one supervised
// storage function, kill or wedge its UIF mid-workload, report recovery.
func chaosCmd(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		function = fs.String("function", "encryption", "supervised storage function: encryption | cache | replication")
		kind     = fs.String("fault", "crash", "injected UIF fault: crash | wedge")
		dur      = fs.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		qd       = fs.Int("qd", 8, "queue depth")
		seed     = fs.Int64("seed", 1, "simulation + fault-plan seed")
	)
	fs.Parse(args)

	cfg := nvmetro.Defaults()
	cfg.Seed = *seed
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	pol := nvmetro.DefaultSupervisePolicy()
	pol.Seed = *seed
	v := sys.NewVM(1, 32<<20)
	part := sys.WholeDisk()
	spec := nvmetro.Spec{Supervise: &pol}
	var site string
	switch *function {
	case "encryption":
		spec.Encrypt = &nvmetro.Encryption{Key: bytes.Repeat([]byte{0x42}, 64)}
		site = "uif-encryptor"
	case "cache":
		cp := nvmetro.DefaultCacheParams()
		spec.Cache = &cp
		site = "uif-cacher"
	case "replication":
		spec.Replicate = sys.NewRemoteHost(4)
		site = "uif-replicator"
	default:
		fmt.Fprintf(os.Stderr, "unknown function %q\n", *function)
		os.Exit(2)
	}
	disk := must(sys.Attach(v, part, spec))
	sup := disk.Supervisor

	plan := nvmetro.NewFaultPlan(*seed)
	switch *kind {
	case "crash":
		plan.WithUIFCrash(0.002, 1)
	case "wedge":
		plan.WithUIFWedge(0.002, 1, 2*nvmetro.Millisecond)
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *kind)
		os.Exit(2)
	}
	inj := plan.Injector(site)
	sup.SetFaultInjector(inj)

	fmt.Printf("host: %d cores, %s UIF under supervision, injecting a %s mid-workload\n",
		cfg.Cores, *function, *kind)
	fc := nvmetro.FIOConfig{
		Mode: nvmetro.RandRW, BlockSize: 4096, QD: *qd,
		Warmup: 2 * nvmetro.Millisecond, Duration: nvmetro.Duration(dur.Nanoseconds()),
		WorkSet: 4 << 20, Zipf: 1.2,
	}
	res := sys.RunFIO(fc, disk.Targets(1))
	fmt.Printf("\nresults: %.1f kIOPS, p50=%.1fus p99=%.1fus, guest errors=%d\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, float64(res.Lat.P99())/1e3, res.Errors)

	fmt.Printf("\nsupervisor: %s\n", sup)
	var cs nvmetro.CounterSet
	sup.Collect(&cs)
	inj.Collect(&cs)
	fmt.Println("counters:")
	for _, name := range cs.Names() {
		fmt.Printf("  %-32s %d\n", name, cs.Get(name))
	}
	if sup.Detections == 0 {
		fmt.Println("\nno fault fired inside the window; try a longer -duration")
	}
}

// scrubCmd is the `nvmetroctl scrub` subcommand: run a PI-protected
// (optionally replicated) disk over a silently-corrupting store, scrub to
// convergence and dump the integrity state.
func scrubCmd(args []string) {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	var (
		kind    = fs.String("fault", "bitrot", "silent corruption: none | bitrot | torn | misdirected | lost")
		replica = fs.Bool("replica", true, "mirror writes to a remote host (the repair source)")
		dur     = fs.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		seed    = fs.Int64("seed", 1, "simulation + fault-plan seed")
	)
	fs.Parse(args)

	// The corruption plan drives the backing store below the device model:
	// damage is invisible until a verifying boundary reads it back.
	const workBlocks = 8192 // 4 MiB working set in 512 B device blocks
	plan := nvmetro.NewFaultPlan(*seed)
	switch *kind {
	case "none":
	case "bitrot":
		plan.WithBitRot(0.002, 8)
	case "torn":
		plan.WithTornWrites(0.002, 8)
	case "misdirected":
		plan.WithMisdirectedWrites(0.002, 8)
	case "lost":
		plan.WithLostWrites(0.002, 8)
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *kind)
		os.Exit(2)
	}

	cfg := nvmetro.Defaults()
	cfg.Seed = *seed
	cfg.GuestCores = 1
	cstore := nvmetro.NewCorruptingStore(
		nvmetro.NewMemStore(cfg.Params.Device.BlockSize()), plan, "store",
		cfg.Params.Device.BlockSize(), workBlocks)
	cfg.Store = cstore
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	v := sys.NewVM(1, 32<<20)
	scrub := nvmetro.DefaultScrubConfig()
	spec := nvmetro.Spec{Integrity: &scrub}
	if *replica {
		spec.Replicate = sys.NewRemoteHost(4)
		fmt.Println("remote mirror attached over NVMe-oF fabric (repair source)")
	} else {
		fmt.Println("no replica: unrepairable damage will be quarantined")
	}
	pd := must(sys.Attach(v, sys.WholeDisk(), spec))

	fmt.Printf("running randrw over a %d-block working set, fault=%s, scrub active...\n",
		workBlocks, *kind)
	pd.Scrubber.Start()
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRW, BlockSize: 4096, QD: 8,
		Warmup: 2 * nvmetro.Millisecond, Duration: nvmetro.Duration(dur.Nanoseconds()),
		WorkSet: 4 << 20, Zipf: 1.2,
	}, pd.Targets(1))
	pd.Scrubber.Stop()

	// Drive scrub (and resync repair) to convergence after the workload.
	for i := 0; i < 4; i++ {
		target := pd.Scrubber.Passes + 1
		pd.Scrubber.Trigger()
		for pd.Scrubber.Passes < target {
			sys.Env.RunUntil(sys.Env.Now().Add(nvmetro.Millisecond))
		}
		sys.Env.RunUntil(sys.Env.Now().Add(5 * nvmetro.Millisecond))
	}

	fmt.Printf("\nresults: %.1f kIOPS, p50=%.1fus p99=%.1fus, guest errors=%d\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, float64(res.Lat.P99())/1e3, res.Errors)
	fmt.Printf("\ninjected: bitrot=%d torn=%d misdirected=%d lost=%d\n",
		cstore.BitRots, cstore.TornWrites, cstore.Misdirected, cstore.LostWrites)

	var cs nvmetro.CounterSet
	pd.Domain.Collect(&cs)
	pd.Scrubber.Collect(&cs)
	var inlineBad uint64
	for _, name := range cs.Names() {
		if strings.HasSuffix(name, ".bad") {
			inlineBad += cs.Get(name)
		}
	}
	if pd.Scrubber.Detected {
		fmt.Printf("first detection at t=%v\n", pd.Scrubber.FirstDetectAt)
	} else if inlineBad > 0 {
		fmt.Printf("corruption caught inline by a verification boundary (%d bad blocks) before the scrubber reached it\n", inlineBad)
	} else if *kind != "none" {
		fmt.Println("no corruption detected inside the window; try a longer -duration")
	}
	fmt.Println("\nintegrity counters:")
	for _, name := range cs.Names() {
		fmt.Printf("  %-32s %d\n", name, cs.Get(name))
	}
	if qr := pd.Domain.QuarantineRanges(); len(qr) > 0 {
		fmt.Println("\nquarantined ranges (guest reads fail with a media error):")
		for _, r := range qr {
			fmt.Printf("  [%d, +%d blocks)\n", r.LBA, r.Blocks)
		}
	}
}

// snapCmd is the `nvmetroctl snap` subcommand: golden-image clones under a
// boot-storm workload, then the operator view of the snapshot layer.
func snapCmd(args []string) {
	fs := flag.NewFlagSet("snap", flag.ExitOnError)
	var (
		nvms  = fs.Int("vms", 8, "number of tenant VMs cloned from the image")
		image = fs.Int("image", 16, "golden image size in MiB")
		dur   = fs.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		seed  = fs.Int64("seed", 1, "simulation seed")
	)
	fs.Parse(args)

	cfg := nvmetro.Defaults()
	cfg.Seed = *seed
	cfg.GuestCores = *nvms
	cfg.Cores = *nvms + 8
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	bs := cfg.Params.Device.BlockSize()
	blocks := uint64(*image) << 20 / uint64(bs)
	img := sys.NewGoldenImage(blocks, blocks/128) // cache ~ half the image's chunks
	payload := make([]byte, blocks*uint64(bs))
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	img.Master().WriteBlocks(0, payload)
	img.Seal()
	fmt.Printf("host: %d cores; golden image %d MiB sealed (%d chunks, base CRC %08x)\n",
		cfg.Cores, *image, img.Index().Chunks(), img.BaseCRC())

	var disks []*nvmetro.Volume
	var targets []nvmetro.FIOTarget
	for i := 0; i < *nvms; i++ {
		v := sys.NewVM(1, 16<<20)
		d := must(sys.Attach(v, nvmetro.Partition{}, nvmetro.Spec{CloneOf: img}))
		disks = append(disks, d)
		targets = append(targets, d.Targets(1)...)
		fmt.Printf("vm%d: cloned namespace %d attached (0 chunks copied)\n",
			i, d.Ctrl.Partition().NSID)
	}

	fc := nvmetro.BootProfile(2*nvmetro.Millisecond, nvmetro.Duration(dur.Nanoseconds()))
	fc.WorkSet = uint64(*image) << 20
	fmt.Printf("\nrunning boot profile (read-mostly shared zipf) over %d clone(s)...\n", *nvms)
	res := sys.RunFIO(fc, targets)
	fmt.Printf("\nresults: %.1f kIOPS, p50=%.1fus p99=%.1fus, guest errors=%d\n",
		res.KIOPS(), float64(res.Lat.Median())/1e3, float64(res.Lat.P99())/1e3, res.Errors)

	fmt.Println("\nlayer chain (bottom to top):")
	fmt.Printf("  %-6s %8s %10s %6s %10s\n", "seq", "chunks", "whiteouts", "refs", "crc")
	for _, li := range img.Master().LayerInfos() {
		fmt.Printf("  %-6d %8d %10d %6d   %08x\n", li.Seq, li.Chunks, li.Whiteouts, li.Refs, li.CRC)
	}

	var cs nvmetro.CounterSet
	img.Collect(&cs)
	var breaks, diverged uint64
	for i, d := range disks {
		d.Store.Collect(fmt.Sprintf("cow.vm%d.", i), &cs)
		breaks += d.Store.CowBreaks
		if d.Store.DivergenceCRC() != 0 {
			diverged++
		}
	}
	fmt.Printf("\ntenants: %d/%d diverged from the image, %d CoW breaks, base CRC still %08x\n",
		diverged, uint64(*nvms), breaks, img.BaseCRC())
	fmt.Println("\nsnapshot counters:")
	for _, name := range cs.Names() {
		fmt.Printf("  %-32s %d\n", name, cs.Get(name))
	}
}

// qosCmd is the `nvmetroctl qos` subcommand: a multi-tenant QoS demo and
// state dump.
func qosCmd(args []string) {
	fs := flag.NewFlagSet("qos", flag.ExitOnError)
	var (
		nvms = fs.Int("vms", 3, "number of tenant VMs (contracts cycle gold/silver/best-effort)")
		dur  = fs.Duration("duration", 20*time.Millisecond, "virtual measurement window")
		qd   = fs.Int("qd", 32, "queue depth per tenant")
		bs   = fs.Int("bs", 4096, "block size")
	)
	fs.Parse(args)

	cfg := nvmetro.Defaults()
	cfg.GuestCores = *nvms
	sys := nvmetro.NewSystem(cfg)
	defer sys.Close()

	pool := sys.NewNVMetroShared(1).WithQoS(nvmetro.QoSConfig{})
	fmt.Printf("host: %d cores, one shared router worker, WFQ arbiter enabled\n", cfg.Cores)

	contracts := []struct {
		label string
		tc    nvmetro.QoSTenantConfig
	}{
		{"gold", nvmetro.QoSTenantConfig{Weight: 4, SLOTargetP99: 2 * nvmetro.Millisecond}},
		{"silver", nvmetro.QoSTenantConfig{Weight: 2, IOPS: 20000, BurstOps: 64}},
		{"best-effort", nvmetro.QoSTenantConfig{Weight: 1, BestEffort: true}},
	}

	parts := sys.CarveDisk(*nvms)
	var targets []nvmetro.FIOTarget
	for i := 0; i < *nvms; i++ {
		v := sys.NewVM(1, 32<<20)
		c := contracts[i%len(contracts)]
		d := must(sys.Attach(v, parts[i], nvmetro.Spec{Pool: pool, QoS: &c.tc}))
		targets = append(targets, d.Targets(1)...)
		fmt.Printf("vm%d: %s contract %+v\n", i, c.label, c.tc)
	}

	fmt.Printf("\nrunning randread bs=%d qd=%d over %d tenant(s)...\n\n", *bs, *qd, *nvms)
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: uint32(*bs), QD: *qd,
		Warmup: 2 * nvmetro.Millisecond, Duration: nvmetro.Duration(dur.Nanoseconds()),
	}, targets)
	fmt.Printf("aggregate: %.1f kIOPS, %.1f MB/s\n\n", res.KIOPS(), res.MBps())

	printQoSTable(pool.Router().QoSSnapshot(sys.Env.Now()))
}

// printQoSTable renders per-tenant arbiter state as an aligned table.
func printQoSTable(snaps []nvmetro.QoSTenantSnapshot) {
	fmt.Printf("%-8s %6s %4s %4s %9s %8s %8s %9s %9s %8s %9s %8s %10s\n",
		"tenant", "weight", "BE", "shed", "IOPS", "ops-lvl", "byt-lvl",
		"admitted", "throttled", "deferred", "p99(us)", "SLO(us)", "attainment")
	for _, t := range snaps {
		slo := "-"
		if t.SLOTarget > 0 {
			slo = fmt.Sprintf("%.0f", float64(t.SLOTarget)/1e3)
		}
		fmt.Printf("%-8s %6.1f %4v %4v %9.0f %7.0f%% %7.0f%% %9d %9d %8d %9.1f %8s %9.0f%%\n",
			t.Name, t.Weight, t.BestEffort, t.Shed,
			t.IOPS, t.OpsLevel*100, t.BytLevel*100,
			t.Admitted, t.Throttled, t.Deferred,
			float64(t.P99)/1e3, slo, t.Attainment()*100)
	}
}
