package blockdev

import (
	"fmt"
	"strings"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// submitProcess is the driver's blocking submission, kept as the reference
// SubmitFunc is held to: charge Submit, fail a bio outside the partition,
// wait for a free CID and SQ slot, build the command and push it.
func (d *NVMeBlockDev) submitProcess(p *sim.Proc, thread *sim.Thread, b *Bio) {
	thread.Exec(p, d.costs.Submit)
	var lba uint64
	var blocks uint32
	if b.Op != BioFlush {
		var ok bool
		if lba, blocks, ok = d.part.TranslateSectors(b.Sector, b.sectors()); !ok {
			if b.OnDone != nil {
				b.OnDone(nvme.SCLBAOutOfRange)
			}
			return
		}
	}
	for len(d.freeCIDs) == 0 || d.qp.SQ.Full() {
		d.waitCID.Wait()
	}
	cid := d.takeCID()
	pend := &d.inflight[cid]
	*pend = pendingBio{bio: b}
	var cmd nvme.Command
	switch b.Op {
	case BioFlush:
		cmd = nvme.NewFlush(cid, d.nsid)
	case BioDiscard:
		cmd.SetOpcode(nvme.OpDSM)
		cmd.SetCID(cid)
		cmd.SetNSID(d.nsid)
		cmd.SetSLBA(lba)
		cmd.SetNLB(uint16(blocks - 1))
	case BioRead, BioWrite:
		pend.pages = d.pool.get((len(b.Data) + guestmem.PageSize - 1) / guestmem.PageSize)
		if b.Op == BioWrite {
			for i, pg := range pend.pages {
				d.hostmem.WriteAt(b.Data[i*guestmem.PageSize:min((i+1)*guestmem.PageSize, len(b.Data))], pg)
			}
		}
		op := nvme.OpRead
		if b.Op == BioWrite {
			op = nvme.OpWrite
		}
		d.building = pend
		prp1, prp2, err := nvme.BuildPRP(d.hostmem, pend.pages, d.listPage)
		d.building = nil
		if err != nil {
			panic(err)
		}
		cmd = nvme.NewRW(op, cid, d.nsid, lba, blocks, prp1, prp2)
	}
	pend.cmd = cmd
	d.push(cid)
}

// runSubmitLockstep runs submitters against a device with only a few CIDs,
// as continuation chains or, for the reference, as processes blocking in
// submitProcess. It returns the books at every run limit and the
// completions in order.
func runSubmitLockstep(seed int64, process bool) (books, log []string) {
	env := sim.New(seed)
	defer env.Close()
	cpu := sim.NewCPU(env, 4)
	dev := device.New(env, device.Default970EvoPlus(), device.NewMemStore(512))
	d := NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 3, DefaultCosts())
	d.freeCIDs = d.freeCIDs[:5] // CID exhaustion: submitters queue on waitCID
	mk := func(w, i int) *Bio {
		b := &Bio{Op: BioOp(i % 4), Sector: uint64(w*128+i%128) * 8, Data: make([]byte, 4096*(1+i%3))}
		switch b.Op {
		case BioFlush:
			b.Data = nil
		case BioDiscard:
			b.Data, b.NSect = nil, 16
		}
		if i%11 == 5 {
			b.Sector = d.part.Blocks * uint64(d.part.BlockSize()) / SectorSize // outside the partition
		}
		b.OnDone = func(st nvme.Status) { log = append(log, fmt.Sprintf("%v w%d #%d %v %v", env.Now(), w, i, b.Op, st)) }
		return b
	}
	for w := 0; w < 6; w++ {
		th := cpu.ThreadOn(w%2, "sub")
		if process {
			env.Go(fmt.Sprintf("sub%d", w), func(p *sim.Proc) {
				for i := 0; ; i++ {
					d.submitProcess(p, th, mk(w, i))
				}
			})
			continue
		}
		i := 0
		var next func()
		next = func() {
			b := mk(w, i)
			i++
			d.SubmitFunc(th, b, next)
		}
		env.After(0, next)
	}
	start := cpu.Snapshot()
	for k := 1; k <= 40; k++ {
		env.RunUntil(sim.Time(sim.Duration(k) * 75 * sim.Microsecond))
		books = append(books, fmt.Sprintf("t=%v dispatched=%d submitted=%d completed=%d cpu=%v free=%d", env.Now(), env.Dispatched(),
			d.Submitted, d.Completed, cpu.Since(start).ByTag, len(d.freeCIDs)))
	}
	return books, log
}

// TestSubmitFuncLockstepWithProcess holds NVMeBlockDev's continuation
// submission to the blocking form it replaced, with six submitters on two
// threads contending for five CIDs: reads, writes, flushes, discards, bios
// outside the partition. At every run limit both agree on the instant, the
// events dispatched, the counters, the CPU time of every tag and the free
// CIDs, and on every completion, in order, with its instant.
func TestSubmitFuncLockstepWithProcess(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref, refLog := runSubmitLockstep(seed, true)
		got, gotLog := runSubmitLockstep(seed, false)
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("seed %d: the books diverge at limit %d:\n continuation: %s\n process:      %s", seed, k, got[k], ref[k])
			}
		}
		if strings.Join(gotLog, "\n") != strings.Join(refLog, "\n") {
			t.Fatalf("seed %d: the completions differ (%d vs %d)", seed, len(gotLog), len(refLog))
		}
		if len(refLog) < 100 || !strings.Contains(strings.Join(refLog, "\n"), "LBAOutOfRange") {
			t.Fatalf("seed %d: weak scenario, %d completions", seed, len(refLog))
		}
	}
}
