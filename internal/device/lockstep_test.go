package device

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/fault"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// hw is what a driver sees of a device: both service paths implement it.
type hw interface {
	CreateQueuePair(depth uint32, mem nvme.Memory) *nvme.QueuePair
	Ring(qid uint16)
}

const (
	lockNSBlocks = 4096 // small namespace: writes, reads and trims overlap
	lockSQDepth  = 512
	lockBursts   = 24
	lockMemBytes = 256 << 20
)

// comp is one completion as the host saw it.
type comp struct {
	t      sim.Time
	qid    uint16
	cid    uint16
	status nvme.Status
	dw0    uint32
}

// lockResult is everything a run of one world leaves behind.
type lockResult struct {
	log                []comp
	stats              [8]uint64
	storeCRC, memCRC   uint32
	end                sim.Time
	dispatched         uint64
	nextRand           int64
	spawns, cqFullSeen uint64
}

// runLockWorld drives one randomized world against the callback path or
// the process reference. Everything random about the world comes from seed,
// drawn in an order that depends only on device behaviour, so two paths
// that behave alike see the same script.
func runLockWorld(t *testing.T, seed int64, reference bool) lockResult {
	env := sim.New(seed)
	defer env.Close()
	p := Default970EvoPlus()
	p.Blocks = lockNSBlocks
	if seed%2 == 0 {
		p.Parallel = 3 // the frontend outruns the media: commands queue for units
	}
	store := NewMemStore(p.BlockSize())
	dev := New(env, p, store)
	plan := fault.NewPlan(seed).WithMediaErrors(0.02).WithDrops(0.01, 6).WithStuck(0.01, 8, 300*sim.Microsecond)
	dev.InjectFaults(plan.Injector("lockstep"))
	var h hw = dev
	if reference {
		h = newRefDevice(dev)
	}
	mem := guestmem.New(lockMemBytes)
	qps := []*nvme.QueuePair{h.CreateQueuePair(lockSQDepth, mem), h.CreateQueuePair(lockSQDepth, mem)}
	// A 4-entry CQ under bursts of up to 256 forces the post-retry loop.
	qps[1].CQ = nvme.NewCQ(qps[1].SQ.ID, 4)

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var res lockResult
	inflight, submitters := 0, len(qps)

	for qi, qp := range qps {
		qi, qp := qi, qp
		env.Go(fmt.Sprintf("submit%d", qi), func(pr *sim.Proc) {
			var cid uint16
			for b := 0; b < lockBursts; b++ {
				qd := 1 << rng.Intn(9) // 1…256
				for int(qp.SQ.Len())+qd > lockSQDepth-1 {
					pr.Sleep(10 * sim.Microsecond)
				}
				for i := 0; i < qd; i++ {
					cid++
					cmd := randomCommand(rng, mem, cid)
					if !qp.SQ.Push(&cmd) {
						t.Error("SQ overflow")
						return
					}
					inflight++
				}
				h.Ring(qp.SQ.ID)
				pr.Sleep(sim.Duration(rng.Intn(400)) * sim.Microsecond)
			}
			submitters--
		})
	}
	env.Go("reap", func(pr *sim.Proc) {
		var e nvme.Completion
		for submitters > 0 || inflight > int(dev.DroppedComps) {
			for _, qp := range qps {
				if qp.CQ.Full() {
					res.cqFullSeen++
				}
				for qp.CQ.Pop(&e) {
					inflight--
					res.log = append(res.log, comp{pr.Now(), e.SQID(), e.CID(), e.Status(), e.Result()})
				}
			}
			pr.Sleep(sim.Duration(1+rng.Intn(20)) * sim.Microsecond)
		}
	})
	res.end = env.Run()

	res.stats = [8]uint64{dev.Reads, dev.Writes, dev.Others, dev.BytesRead, dev.BytesWrit,
		dev.MediaErrors, dev.DroppedComps, dev.StuckComps}
	res.storeCRC = store.ContentCRC()
	page := make([]byte, guestmem.PageSize)
	h32 := crc32.NewIEEE()
	for addr := uint64(guestmem.PageSize); addr < guestmem.PageSize+mem.Allocated(); addr += guestmem.PageSize {
		if err := mem.ReadAt(page, addr); err != nil {
			t.Fatal(err)
		}
		h32.Write(page)
	}
	res.memCRC = h32.Sum32()
	res.dispatched = env.Dispatched()
	res.spawns = env.Spawns()
	res.nextRand = env.Rand().Int63()
	return res
}

// randomCommand draws one command: mostly valid data commands on a small
// LBA window, salted with every way a guest can get one rejected.
func randomCommand(rng *rand.Rand, mem *guestmem.Memory, cid uint16) nvme.Command {
	blocks := uint32(1 + rng.Intn(24)) // up to 12 KiB: PRP1 only, PRP1+PRP2 and PRP lists
	lba := uint64(rng.Intn(lockNSBlocks - int(blocks)))
	nsid := uint32(1)
	var cmd nvme.Command
	dataCmd := func(op uint8) {
		n := blocks * 512
		base, pages, err := mem.AllocBuffer(n)
		if err != nil {
			panic(err)
		}
		if op != nvme.OpRead {
			data := make([]byte, n)
			rng.Read(data)
			// Half the compares match a constant the writes below also use.
			if rng.Intn(2) == 0 {
				for i := range data {
					data[i] = byte(lba)
				}
			}
			if err := mem.WriteAt(data, base); err != nil {
				panic(err)
			}
		}
		prp1, prp2, err := nvme.BuildPRP(mem, pages, func() uint64 { return mem.MustAllocPages(1) })
		if err != nil {
			panic(err)
		}
		cmd = nvme.NewRW(op, cid, nsid, lba, blocks, prp1, prp2)
	}
	switch k := rng.Intn(100); {
	case k < 35:
		dataCmd(nvme.OpRead)
	case k < 65:
		dataCmd(nvme.OpWrite)
	case k < 72:
		dataCmd(nvme.OpCompare)
	case k < 78:
		cmd = nvme.NewRW(nvme.OpWriteZeroes, cid, nsid, lba, blocks, 0, 0)
	case k < 82:
		cmd = nvme.NewFlush(cid, nsid)
	case k < 86:
		cmd = nvme.NewRW(nvme.OpDSM, cid, nsid, lba, blocks, 0, 0)
	case k < 89:
		cmd.SetOpcode(nvme.OpVendorStart + uint8(rng.Intn(8)))
		cmd.SetCID(cid)
		cmd.SetNSID(nsid)
	case k < 91:
		cmd.SetOpcode(0x55)
		cmd.SetCID(cid)
		cmd.SetNSID(nsid)
	case k < 94: // out of range: past the end, straddling it, wrapping
		dataCmd([]uint8{nvme.OpRead, nvme.OpWrite, nvme.OpCompare}[rng.Intn(3)])
		cmd.SetSLBA([]uint64{lockNSBlocks, lockNSBlocks - 1, ^uint64(0)}[rng.Intn(3)])
		cmd.SetNLB(1)
	case k < 96: // unknown namespace
		nsid = 9
		dataCmd(nvme.OpRead)
	case k < 98: // one page from an offset spills into a misaligned PRP2
		blocks = 8
		dataCmd([]uint8{nvme.OpRead, nvme.OpWrite}[rng.Intn(2)])
		cmd.SetPRP1(cmd.PRP1() + 512)
		cmd.SetPRP2(cmd.PRP2() + 8)
	default: // PRP1 outside guest memory
		dataCmd([]uint8{nvme.OpRead, nvme.OpWrite}[rng.Intn(2)])
		cmd.SetPRP1(lockMemBytes + 4096)
	}
	cmd.SetCDW(3, rng.Uint32()) // the controller echoes CDW3 in DW0
	return cmd
}

// TestLockstepWithProcessReference is the oracle for the callback-tier
// command service: over randomized worlds it must be indistinguishable from
// the process-per-command path it replaced — same completions at the same
// instants, same data, same stats, and the same scheduler event count and
// RNG position, which is what keeps every golden CSV byte-identical.
func TestLockstepWithProcessReference(t *testing.T) {
	worlds := 12
	if testing.Short() {
		worlds = 3
	}
	var retried uint64
	for seed := int64(1); seed <= int64(worlds); seed++ {
		got, want := runLockWorld(t, seed, false), runLockWorld(t, seed, true)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: completion %d is %+v, reference %+v", seed, i, got.log[i], want.log[i])
			}
		}
		if got.spawns >= want.spawns || got.spawns != 3 {
			t.Errorf("seed %d: %d spawns (reference %d), want the 3 driver processes only", seed, got.spawns, want.spawns)
		}
		got.spawns, want.spawns = 0, 0
		got.log, want.log = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: end state\n      got %+v\nreference %+v", seed, got, want)
		}
		if want.stats[0] == 0 || want.stats[1] == 0 || want.stats[5] == 0 || want.stats[6] == 0 || want.stats[7] == 0 {
			t.Errorf("seed %d: world too tame, stats %v", seed, want.stats)
		}
		retried += want.cqFullSeen
	}
	if retried == 0 {
		t.Error("the 4-entry CQ never filled: the post-retry loop went untested")
	}
}
