package blockdev

import (
	"fmt"

	"nvmetro/internal/device"
	"nvmetro/internal/guestmem"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// dmaPool hands out page-aligned DMA buffers in host kernel memory with
// per-size free lists, so steady-state I/O allocates nothing.
type dmaPool struct {
	mem  *guestmem.Memory
	free map[int][][]uint64 // npages -> list of page sets
}

func newDMAPool(mem *guestmem.Memory) *dmaPool {
	return &dmaPool{mem: mem, free: make(map[int][][]uint64)}
}

func (p *dmaPool) get(npages int) []uint64 {
	l := p.free[npages]
	if n := len(l); n > 0 {
		pages := l[n-1]
		p.free[npages] = l[:n-1]
		return pages
	}
	base := p.mem.MustAllocPages(npages)
	pages := make([]uint64, npages)
	for i := range pages {
		pages[i] = base + uint64(i)*guestmem.PageSize
	}
	return pages
}

func (p *dmaPool) put(pages []uint64) {
	p.free[len(pages)] = append(p.free[len(pages)], pages)
}

// Recovery is the host driver's error-recovery policy: a per-command
// deadline with abort and bounded, exponentially backed-off resubmission —
// the sim equivalent of the kernel's nvme_timeout/abort/reset ladder. A
// timed-out CID is quarantined (not reused) until its late completion
// arrives or the reclaim window expires, so stale completions cannot be
// misattributed to a new command on the same tag.
type Recovery struct {
	Timeout    sim.Duration // per-command deadline (0 disables recovery)
	MaxRetries int          // resubmissions after a timeout before failing the bio
	Backoff    sim.Duration // first retry delay; doubles per attempt
	Reclaim    sim.Duration // quarantine before a lost CID may be reused
}

// DefaultRecovery returns a conservative policy: a deadline far above any
// loaded-device latency (bandwidth-bound sequential writes at QD512 can
// legitimately queue for ~20 ms in the model), so it only ever fires on
// genuinely lost completions. Fault experiments install tighter policies.
func DefaultRecovery() Recovery {
	return Recovery{
		Timeout:    100 * sim.Millisecond,
		MaxRetries: 3,
		Backoff:    100 * sim.Microsecond,
		Reclaim:    200 * sim.Millisecond,
	}
}

// Validate rejects policies that would silently misbehave. A reclaim
// window shorter than the command deadline is the dangerous one: a tag
// could be recycled while its first attempt is still within deadline,
// widening the misattribution window instead of bounding it.
func (rec Recovery) Validate() error {
	if rec.MaxRetries < 0 {
		return fmt.Errorf("blockdev: negative MaxRetries %d", rec.MaxRetries)
	}
	if rec.Timeout < 0 || rec.Backoff < 0 || rec.Reclaim < 0 {
		return fmt.Errorf("blockdev: negative recovery timer (timeout=%v backoff=%v reclaim=%v)",
			rec.Timeout, rec.Backoff, rec.Reclaim)
	}
	if rec.Timeout > 0 && rec.Reclaim < rec.Timeout {
		return fmt.Errorf("blockdev: reclaim window %v shorter than command deadline %v", rec.Reclaim, rec.Timeout)
	}
	return nil
}

// NVMeBlockDev is the host NVMe driver's block device: bios are translated
// to NVMe commands on a dedicated host queue pair, data is bounced through
// kernel DMA buffers, and completions are handled in a simulated interrupt
// context thread.
type NVMeBlockDev struct {
	env      *sim.Env
	dev      *device.Device
	nsid     uint32
	part     device.Partition
	costs    Costs
	rec      Recovery
	qp       *nvme.QueuePair
	hostmem  *guestmem.Memory
	pool     *dmaPool
	irq      *sim.Thread
	irqCond  *sim.Cond
	cqe      nvme.Completion // entry the irq handler is completing
	irqDrain func()          // the handler's steps, bound once
	irqDone  func()
	inflight map[uint16]*pendingBio
	freeCIDs []uint16
	waitCID  *sim.Cond
	shift    uint8

	lost      map[uint16]lostCID // quarantined CIDs: timed out, completion pending
	genSeq    uint32             // submission-generation sequence (stamped in CDW3)
	deadlines *sim.Deadlines     // per-attempt timeouts, keyed (CID, generation)
	retryQ    []*pendingBio
	retryCond *sim.Cond

	// Stats
	Submitted, Completed uint64
	Timeouts             uint64 // commands that hit their deadline
	Retries              uint64 // resubmissions after a timeout
	Aborts               uint64 // bios failed after exhausting retries
	Stale                uint64 // late completions for quarantined CIDs
	StaleReclaimed       uint64 // late completions for already-reclaimed tags
	Reclaimed            uint64 // quarantined CIDs recycled without a completion
	PRPErrors            uint64 // bios failed at PRP build
	GuardErrors          uint64 // reads failing protection-info verification

	verifier ReadVerifier
}

// ReadVerifier checks read payloads against per-block protection info at a
// completion boundary: this driver's, or the NVMe-oF initiator's receive path
// (satisfied by *integrity.SectorGuard).
type ReadVerifier interface {
	VerifySectors(sector uint64, data []byte) bool
}

// lostCID is one quarantined tag: the generation of the attempt that lost
// it, and when the quarantine began.
type lostCID struct {
	gen   uint32
	since sim.Time
}

// genDW is the otherwise-reserved command dword carrying the submission
// generation; the device echoes it in the completion's DW0 result, which
// is what lets the driver tell a reclaimed tag's late completion from its
// new occupant's.
const genDW = 3

type pendingBio struct {
	bio       *Bio
	pages     []uint64
	listPages []uint64
	base      uint64
	cmd       nvme.Command // retryable command image (CID rewritten per attempt)
	attempts  int          // submissions so far
	gen       uint32       // generation of the current attempt
}

// NewNVMeBlockDev creates the host block device over a partition of the
// physical device. irqCore hosts the interrupt handler context.
func NewNVMeBlockDev(env *sim.Env, part device.Partition, cpu *sim.CPU, irqCore int, costs Costs) *NVMeBlockDev {
	hostmem := guestmem.New(512 << 20)
	d := &NVMeBlockDev{
		env:      env,
		dev:      part.Dev,
		nsid:     part.NSID,
		part:     part,
		costs:    costs,
		hostmem:  hostmem,
		pool:     newDMAPool(hostmem),
		irq:      cpu.ThreadOn(irqCore, "kernel/irq"),
		irqCond:  sim.NewCond(env),
		inflight: make(map[uint16]*pendingBio),
		waitCID:  sim.NewCond(env),
		shift:    part.Dev.Params().LBAShift,

		rec:       DefaultRecovery(),
		lost:      make(map[uint16]lostCID),
		retryCond: sim.NewCond(env),
	}
	d.deadlines = sim.NewDeadlines(env, d.awaited, d.onTimeout)
	d.qp = part.Dev.CreateQueuePair(1024, hostmem)
	for i := uint16(0); i < 1023; i++ {
		d.freeCIDs = append(d.freeCIDs, i)
	}
	d.qp.CQ.OnPost = func() { d.irqCond.Signal(nil) }
	d.irqDrain, d.irqDone = d.drainCQ, d.completeCQE
	// The irq handler starts waiting one event from now.
	env.After(0, d.irqWait)
	env.Go(fmt.Sprintf("kernel/nvme-retry-ns%d", part.NSID), d.retryLoop)
	return d
}

// SetRecovery replaces the error-recovery policy (before or between I/O).
// Invalid policies are rejected and the previous policy stays active.
// Attempts outstanding at the time keep the deadline they were submitted
// under.
func (d *NVMeBlockDev) SetRecovery(rec Recovery) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	d.rec = rec
	return nil
}

// Recovery returns the active error-recovery policy.
func (d *NVMeBlockDev) Recovery() Recovery { return d.rec }

// SetVerifier installs a protection-info verifier on the read completion
// path (nil detaches). A read whose payload fails verification completes
// with a guard-check media error instead of delivering wrong data.
func (d *NVMeBlockDev) SetVerifier(v ReadVerifier) { d.verifier = v }

// Partition returns the device partition this block device covers.
func (d *NVMeBlockDev) Partition() device.Partition { return d.part }

// NumSectors implements BlockDevice.
func (d *NVMeBlockDev) NumSectors() uint64 {
	return d.part.Blocks << d.shift / SectorSize
}

// SubmitBio implements BlockDevice. A bio reaching outside the partition
// fails LBAOutOfRange without touching the device: the sectors come from
// whoever sits above — for the virtio baselines, the guest.
func (d *NVMeBlockDev) SubmitBio(p *sim.Proc, thread *sim.Thread, b *Bio) {
	thread.Exec(p, d.costs.Submit)
	var lba uint64
	var blocks uint32
	if b.Op != BioFlush {
		var ok bool
		if lba, blocks, ok = d.part.TranslateSectors(b.Sector, b.Sectors()); !ok {
			if b.OnDone != nil {
				b.OnDone(nvme.SCLBAOutOfRange)
			}
			return
		}
	}
	for len(d.freeCIDs) == 0 || d.qp.SQ.Full() {
		d.waitCID.Wait()
	}
	cid := d.freeCIDs[len(d.freeCIDs)-1]
	d.freeCIDs = d.freeCIDs[:len(d.freeCIDs)-1]

	pend := &pendingBio{bio: b}
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
		npages := (len(b.Data) + guestmem.PageSize - 1) / guestmem.PageSize
		pend.pages = d.pool.get(npages)
		pend.base = pend.pages[0]
		if b.Op == BioWrite {
			// Copy data into the DMA buffer (kernel bounce).
			for i, pg := range pend.pages {
				off := i * guestmem.PageSize
				end := off + guestmem.PageSize
				if end > len(b.Data) {
					end = len(b.Data)
				}
				d.hostmem.WriteAt(b.Data[off:end], pg)
			}
		}
		op := nvme.OpRead
		if b.Op == BioWrite {
			op = nvme.OpWrite
		}
		prp1, prp2, err := nvme.BuildPRP(d.hostmem, pend.pages, func() uint64 {
			pg := d.pool.get(1)
			pend.listPages = append(pend.listPages, pg[0])
			return pg[0]
		})
		if err != nil {
			// A malformed transfer fails this one bio, not the whole sim.
			d.PRPErrors++
			d.releaseDMA(pend)
			d.freeCIDs = append(d.freeCIDs, cid)
			d.waitCID.Signal(nil)
			if b.OnDone != nil {
				b.OnDone(nvme.SCInternal)
			}
			return
		}
		cmd = nvme.NewRW(op, cid, d.nsid, lba, blocks, prp1, prp2)
	}
	pend.cmd = cmd
	d.push(cid, pend)
}

// push installs pend under cid, submits its command and arms the deadline.
// Every attempt is stamped with a fresh generation so the irq handler can
// match completions to the attempt that earned them.
func (d *NVMeBlockDev) push(cid uint16, pend *pendingBio) {
	pend.attempts++
	d.genSeq++
	pend.gen = d.genSeq
	pend.cmd.SetCDW(genDW, pend.gen)
	pend.cmd.SetCID(cid)
	d.inflight[cid] = pend
	for !d.qp.SQ.Push(&pend.cmd) {
		// SQ full despite the free-CID gate: back off and retry rather
		// than panicking; the next completion drains the queue.
		d.waitCID.Wait()
	}
	d.Submitted++
	d.dev.Ring(d.qp.SQ.ID)
	// The deadline is queued by (CID, generation), never as a closure over
	// pend: a timer that can reach pend keeps the bio's payload alive for
	// the whole Timeout after the bio completed.
	if d.rec.Timeout > 0 {
		d.deadlines.Add(uint32(cid), pend.gen, d.env.Now().Add(d.rec.Timeout))
	}
}

// awaited reports whether attempt gen still occupies cid.
func (d *NVMeBlockDev) awaited(cid, gen uint32) bool {
	pend := d.inflight[uint16(cid)]
	return pend != nil && pend.gen == gen
}

// onTimeout aborts an attempt that missed its deadline: the CID is
// quarantined against late completions and the command is either
// resubmitted after exponential backoff or failed to the bio issuer.
// Runs in scheduler callback context (non-blocking).
func (d *NVMeBlockDev) onTimeout(id, _ uint32) {
	cid := uint16(id)
	pend := d.inflight[cid]
	d.Timeouts++
	delete(d.inflight, cid)
	d.quarantine(cid, pend.gen)
	if pend.attempts > d.rec.MaxRetries {
		d.Aborts++
		d.finishBio(pend, nvme.SCAbortRequested)
		return
	}
	d.env.After(sim.Backoff(d.rec.Backoff, 0, pend.attempts, 0, nil), func() {
		d.retryQ = append(d.retryQ, pend)
		d.retryCond.Signal(nil)
	})
}

// quarantine parks a lost CID until its completion shows up or the reclaim
// window expires (the stand-in for a queue reset reclaiming tags). The
// generation of the lost attempt is remembered so a completion arriving
// after reclaim — when the tag may already have a new occupant — can be
// recognized as stale by its generation echo instead of being delivered.
func (d *NVMeBlockDev) quarantine(cid uint16, gen uint32) {
	entry := lostCID{gen: gen, since: d.env.Now()}
	d.lost[cid] = entry
	d.env.After(d.rec.Reclaim, func() {
		if e, ok := d.lost[cid]; ok && e == entry {
			delete(d.lost, cid)
			d.Reclaimed++
			d.freeCIDs = append(d.freeCIDs, cid)
			d.waitCID.Signal(nil)
		}
	})
}

// retryLoop resubmits timed-out commands once their backoff elapses.
func (d *NVMeBlockDev) retryLoop(p *sim.Proc) {
	for {
		if len(d.retryQ) == 0 {
			d.retryCond.Wait()
			continue
		}
		pend := d.retryQ[0]
		d.retryQ = d.retryQ[1:]
		d.irq.Exec(p, d.costs.Submit)
		for len(d.freeCIDs) == 0 || d.qp.SQ.Full() {
			d.waitCID.Wait()
		}
		cid := d.freeCIDs[len(d.freeCIDs)-1]
		d.freeCIDs = d.freeCIDs[:len(d.freeCIDs)-1]
		d.Retries++
		d.push(cid, pend)
	}
}

// The completion interrupt handler is a continuation on the irq thread
// (Cond.WaitFunc, Thread.ExecFunc), not a process: interrupt -> pop ->
// per-CQE cost -> bookkeeping -> pop ... -> wait. An interrupt raised while
// it runs finds no waiter; the drain loop finds that entry by itself.

func (d *NVMeBlockDev) irqWait() { d.irqCond.WaitFunc(d.irqDrain) }

func (d *NVMeBlockDev) drainCQ() {
	if !d.qp.CQ.Pop(&d.cqe) {
		d.irqWait()
		return
	}
	d.irq.ExecFunc(d.costs.Complete, d.irqDone)
}

func (d *NVMeBlockDev) completeCQE() {
	cid := d.cqe.CID()
	gen := d.cqe.Result() // the device echoes the submission generation
	if pend := d.inflight[cid]; pend != nil && pend.gen == gen {
		delete(d.inflight, cid)
		d.freeCIDs = append(d.freeCIDs, cid)
		d.waitCID.Signal(nil)
		d.finishBio(pend, d.cqe.Status())
	} else if le, ok := d.lost[cid]; ok && le.gen == gen {
		// A completion that doesn't belong to the tag's current occupant:
		// the late arrival of a timed-out attempt. Still quarantined:
		// release the tag.
		delete(d.lost, cid)
		d.Stale++
		d.freeCIDs = append(d.freeCIDs, cid)
		d.waitCID.Signal(nil)
	} else {
		// The tag was already reclaimed (and possibly reused by pend):
		// count it stale, never deliver it.
		d.StaleReclaimed++
	}
	d.drainCQ()
}

// finishBio copies read data back, releases DMA resources and reports the
// final status. Safe from both process and callback context.
func (d *NVMeBlockDev) finishBio(pend *pendingBio, st nvme.Status) {
	if pend.bio.Op == BioRead && st.OK() {
		for i, pg := range pend.pages {
			off := i * guestmem.PageSize
			end := off + guestmem.PageSize
			if end > len(pend.bio.Data) {
				end = len(pend.bio.Data)
			}
			d.hostmem.ReadAt(pend.bio.Data[off:end], pg)
		}
		if d.verifier != nil && !d.verifier.VerifySectors(pend.bio.Sector, pend.bio.Data) {
			// The device returned data that contradicts its protection
			// info: surface a guard error instead of wrong data. The
			// payload stays in bio.Data for layers (the scrubber) that
			// diagnose the damage.
			d.GuardErrors++
			st = nvme.SCGuardCheck
		}
	}
	d.releaseDMA(pend)
	d.Completed++
	if pend.bio.OnDone != nil {
		pend.bio.OnDone(st)
	}
}

// releaseDMA returns the pending bio's bounce and PRP-list pages.
func (d *NVMeBlockDev) releaseDMA(pend *pendingBio) {
	if pend.pages != nil {
		d.pool.put(pend.pages)
		pend.pages = nil
	}
	for _, lp := range pend.listPages {
		d.pool.put([]uint64{lp})
	}
	pend.listPages = nil
}
