package harness

import (
	"encoding/binary"
	"fmt"
	"strings"

	"nvmetro/internal/cow"
	"nvmetro/internal/device"
	"nvmetro/internal/fio"
	"nvmetro/internal/metrics"
	"nvmetro/internal/sim"
	"nvmetro/internal/stack"
	"nvmetro/internal/vm"
)

// The bootstorm experiment is the snapshot/clone deliverable: N single-vCPU
// tenants boot simultaneously from clones of one sealed golden image and run
// the read-mostly boot profile (same guest offsets in every tenant, zipf hot
// set, a trickle of writes). Two provisioning regimes face off over the same
// total cache budget:
//
//   - shared: one golden image, one content-addressed chunk index, one
//     content cache of the full budget. One tenant's miss warms every other
//     tenant's reads; tenant writes CoW-break into private chunks.
//   - flat: every tenant gets its own full copy of the image with a private
//     index and a 1/N slice of the cache budget — the conventional
//     image-per-VM layout.
//
// Every cell runs with end-to-end integrity armed (PI stamped at the
// mediation point, verified at the guest boundary), so the table doubles as
// the proof that CoW indirection never surfaces wrong bytes: guard_bad must
// stay 0. After the storm each tenant writes a tenant-unique block and the
// clones are checkpointed, measuring divergence isolation (every clone's
// content CRC moves, the sealed base CRC does not) and cross-tenant dedup of
// the checkpointed state.
func init() {
	register("bootstorm", "Boot storm: N tenants cloned from one golden image, shared vs flat provisioning", func(o Options) []*Table {
		return []*Table{bootstormTable(o)}
	})
}

const (
	// bootImageBlocks is the golden image size in 512 B blocks (1 MiB quick
	// / 4 MiB full): small enough that the flat regime's N full copies stay
	// cheap, large enough to dwarf the per-tenant flat cache slice.
	bootImageBlocksQuick = 2048
	bootImageBlocksFull  = 8192
	// bootCacheChunks is the total content-cache budget in chunks, shared
	// by the whole tenant fleet (the flat regime splits it N ways).
	bootCacheChunks = 256
)

// bootPayload fills the golden image with per-chunk-distinct content (a
// repeating texture plus a unique header per 32 KiB chunk), so the sealed
// image dedups nothing against itself: dedup_hits counts honest
// cross-tenant sharing only, and unique_chunks counts real copies.
func bootPayload(blocks uint64) []byte {
	buf := make([]byte, blocks*512)
	for i := range buf {
		buf[i] = byte(i*131 + i>>9)
	}
	const chunkBytes = 64 * 512 // the cow layer's chunk
	for c := 0; c*chunkBytes < len(buf); c++ {
		binary.LittleEndian.PutUint64(buf[c*chunkBytes:], uint64(c)^0x9e3779b97f4a7c15)
	}
	return buf
}

// bootstormRun is one cell's outcome.
type bootstormRun struct {
	res      fio.Result
	counters metrics.CounterSet
	hitRatio float64 // content-cache hits / lookups across all images

	cowBreaks   uint64 // shared chunks broken private by tenant writes
	cloneCopies uint64 // chunks copied while cloning (flat-cost claim: 0)
	cloneLayers int    // layer-chain length per fresh clone
	dedupHits   uint64 // index hits for already-present content
	uniqChunks  uint64 // distinct chunks across all images at the end

	divergent   int  // tenants whose content CRC left the golden CRC
	distinctCRC int  // distinct tenant content CRCs after divergence writes
	baseOK      bool // sealed base layer and golden content CRCs unchanged
	guardBad    uint64
	drained     bool
}

// runBootstorm builds the storm testbed: one host with a guest core per
// tenant, the golden image(s), N cloned namespaces, the boot-profile fio
// phase, a per-tenant divergence write, and a checkpoint of every clone.
// shards > 0 routes the whole fleet through the per-core sharded dispatch
// subsystem (one core per shard) instead of a router per tenant; zero
// keeps the original layout, byte-identical to the pre-shard goldens.
func runBootstorm(o Options, vms int, imgBlocks, cacheChunks uint64, shared bool, shards int) bootstormRun {
	env := sim.New(o.Seed + 1)
	defer env.Close()
	p := stack.DefaultParams()
	h := stack.NewHost(env, vms+8+shards, vms, p, device.NullStore{})

	payload := bootPayload(imgBlocks)
	newImage := func(chunks uint64) *stack.GoldenImage {
		img := stack.NewGoldenImage(h, imgBlocks, chunks)
		img.Master().WriteBlocks(0, payload)
		img.Seal()
		return img
	}

	var (
		images []*stack.GoldenImage
		sols   []*stack.NVMetro
		guests []*vm.VM
		disks  []vm.Disk
		stores []*cow.Store
	)
	mkSol := func(img *stack.GoldenImage) *stack.NVMetro {
		sol := stack.NewNVMetro(h)
		if shards > 0 {
			sol = stack.NewNVMetroSharded(h, shards)
		}
		return sol.WithIntegrity(scrubConfig()).WithSnapshots(img)
	}
	if shared {
		img := newImage(cacheChunks)
		images = append(images, img)
		sol := mkSol(img)
		for i := 0; i < vms; i++ {
			v := h.NewVM(1, 16<<20)
			disks = append(disks, sol.CloneFrom(v))
			guests = append(guests, v)
			sols = append(sols, sol)
			stores = append(stores, sol.CloneStoreFor(v))
		}
	} else {
		per := cacheChunks / uint64(vms)
		if per == 0 {
			per = 1
		}
		for i := 0; i < vms; i++ {
			img := newImage(per)
			images = append(images, img)
			sol := mkSol(img)
			v := h.NewVM(1, 16<<20)
			disks = append(disks, sol.CloneFrom(v))
			guests = append(guests, v)
			sols = append(sols, sol)
			stores = append(stores, sol.CloneStoreFor(v))
		}
	}

	out := bootstormRun{cloneLayers: len(stores[0].Layers())}
	for _, st := range stores {
		out.cloneCopies += st.ChunkCopies
	}
	goldBase := make([]uint32, len(images))
	goldContent := make([]uint32, len(images))
	for i, img := range images {
		goldBase[i] = img.BaseCRC()
		goldContent[i] = img.ContentCRC()
	}

	// The storm: every tenant walks the same guest offsets of its clone.
	warm, dur := o.windows()
	cfg := fio.BootProfile(warm, dur)
	cfg.WorkSet = imgBlocks * 512
	targets := make([]fio.Target, vms)
	for i := range targets {
		targets[i] = fio.Target{Disk: disks[i], VM: guests[i], VCPU: guests[i].VCPU(0)}
	}
	out.res = fio.Run(env, h.CPU, targets, cfg)
	out.drained = true
	for i, sol := range sols {
		out.drained = out.drained && drainOutstanding(env, sol.ControllerFor(guests[i]).Outstanding)
	}

	// Divergence phase: each tenant writes one tenant-unique 4 KiB block
	// through its guest path, then its clone is checkpointed — the content
	// CRCs must fan out while every sealed golden CRC stays put.
	driveGuest(env, "bootstorm-diverge", func(pr *sim.Proc) {
		for i := 0; i < vms; i++ {
			v := guests[i]
			base, pages, err := v.Mem.AllocBuffer(4096)
			if err != nil {
				panic(err)
			}
			mine := make([]byte, 4096)
			for k := range mine {
				mine[k] = byte(k*7 + i*13 + 1)
			}
			v.Mem.WriteAt(mine, base)
			r := &vm.Req{Op: vm.OpWrite, LBA: uint64(8 * (i % 64)), Blocks: 8, Buf: base, BufPages: pages}
			if st := vm.SubmitAndWait(pr, disks[i], v.VCPU(0), r); !st.OK() {
				panic(fmt.Sprintf("bootstorm: divergence write vm%d: %v", i, st))
			}
		}
	})
	for i, sol := range sols {
		out.drained = out.drained && drainOutstanding(env, sol.ControllerFor(guests[i]).Outstanding)
	}

	seen := make(map[uint32]bool)
	for _, st := range stores {
		st.Snapshot() // checkpoint: private chunks enter the content index
		crc := st.ContentCRC()
		if !seen[crc] {
			seen[crc] = true
		}
		if crc != goldContent[0] && st.DivergenceCRC() != 0 {
			out.divergent++
		}
		out.cowBreaks += st.CowBreaks
	}
	out.distinctCRC = len(seen)

	out.baseOK = true
	for i, img := range images {
		out.baseOK = out.baseOK && img.BaseCRC() == goldBase[i] && img.ContentCRC() == goldContent[i]
	}

	// Counter roll-up: per-image index/cache counters, aggregate clone CoW
	// counters, and every PI guard across the fleet.
	var hits, lookups uint64
	for _, img := range images {
		var ic metrics.CounterSet
		img.Collect(&ic)
		hits += ic.Get("cow.cache.hits")
		lookups += ic.Get("cow.cache.hits") + ic.Get("cow.cache.misses")
		out.uniqChunks += ic.Get("cow.index.chunks")
		out.dedupHits += ic.Get("cow.index.dedup_hits")
		out.counters.Merge(&ic)
	}
	if lookups > 0 {
		out.hitRatio = float64(hits) / float64(lookups)
	}
	var cs metrics.CounterSet
	for i, st := range stores {
		var sc metrics.CounterSet
		st.Collect("cow.clone.", &sc)
		cs.Merge(&sc)
		if dom := sols[i].IntegrityDomainFor(guests[i]); dom != nil {
			var dc metrics.CounterSet
			dom.Collect(&dc)
			for _, n := range dc.Names() {
				if strings.HasPrefix(n, "pi.") && strings.HasSuffix(n, ".bad") {
					out.guardBad += dc.Get(n)
				}
			}
			cs.Merge(&dc)
		}
	}
	out.counters.Merge(&cs)
	out.counters.Add("fio.errors", out.res.Errors)
	out.counters.Add("fio.ops", out.res.Ops)
	out.counters.Add("guard.bad", out.guardBad)
	return out
}

// bootstormOK is the cell acceptance predicate: everything drained, no
// guard ever saw wrong bytes, every tenant diverged privately, and no
// sealed golden layer moved.
func bootstormOK(r bootstormRun, vms int) bool {
	return r.drained && r.guardBad == 0 && r.res.Errors == 0 &&
		r.divergent == vms && r.baseOK && r.cloneCopies == 0
}

// bootstormTable sweeps fleet sizes under both regimes, plus one
// big-image shared cell: clone_layers and clone_copies must match the
// small-image cell — the clone-cost-is-metadata-only claim.
func bootstormTable(o Options) *Table {
	t := &Table{
		ID:    "bootstorm",
		Title: "Boot storm: shared golden image vs flat per-tenant images",
		Cols: []string{"kiops", "hit_ratio", "cow_breaks", "dedup_hits", "unique_chunks",
			"clone_layers", "clone_copies", "divergent", "base_ok", "guard_bad", "ok"},
	}
	imgBlocks := uint64(bootImageBlocksFull)
	fleets := []int{32, 64, 128}
	if o.Quick {
		imgBlocks = bootImageBlocksQuick
		fleets = []int{8, 16}
	}
	// Every cell is an independent shard; rows are assembled in enqueue
	// order after the group runs, so the table matches a serial sweep.
	g := o.group()
	type cell struct {
		name string
		vms  int
		r    *bootstormRun
	}
	var cells []cell
	queue := func(name string, vms int, blocks uint64, shared bool, shards int) {
		r := shard(g, func() bootstormRun {
			return runBootstorm(o, vms, blocks, bootCacheChunks, shared, shards)
		})
		cells = append(cells, cell{name, vms, r})
	}
	for _, n := range fleets {
		queue(fmt.Sprintf("shared N=%d", n), n, imgBlocks, true, 0)
		queue(fmt.Sprintf("flat N=%d", n), n, imgBlocks, false, 0)
	}
	queue(fmt.Sprintf("shared N=%d img x4", fleets[0]), fleets[0], imgBlocks*4, true, 0)
	// The sharded cell sends the whole storm through the per-core shard
	// fleet (scale-sweep sizing rule: one shard per 16 tenants, max 64) —
	// at the full 1024-tenant fleet this is the paper's boot-storm-at-scale
	// configuration, and the same integrity/divergence predicate must hold.
	stormN := 1024
	if o.Quick {
		stormN = 32
	}
	queue(fmt.Sprintf("sharded N=%d", stormN), stormN, imgBlocks, true, scaleShards(stormN))
	g.Run()
	for _, c := range cells {
		r := *c.r
		ok := 0.0
		if bootstormOK(r, c.vms) {
			ok = 1
		}
		baseOK := 0.0
		if r.baseOK {
			baseOK = 1
		}
		t.Add(c.name,
			r.res.KIOPS(),
			r.hitRatio,
			float64(r.cowBreaks),
			float64(r.dedupHits),
			float64(r.uniqChunks),
			float64(r.cloneLayers),
			float64(r.cloneCopies),
			float64(r.divergent),
			baseOK,
			float64(r.guardBad),
			ok)
	}
	t.Notes = "same total cache budget per row pair; hit_ratio = content-cache hits/lookups; ok = drained, guard_bad=0, every tenant diverged, golden CRCs unchanged, clone copied zero chunks; sharded row runs the fleet through the per-core shard router (1 shard per 16 VMs, max 64)"
	return t
}
