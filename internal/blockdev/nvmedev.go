package blockdev

import (
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

// The driver's error recovery, the sim equivalent of the kernel's
// nvme_timeout/abort/reset ladder: each command has a deadline, and a
// command that misses it is aborted and resubmitted, with exponential
// backoff, a bounded number of times before its bio fails. A timed-out CID
// is quarantined (not reused) until its late completion arrives or the
// reclaim window expires, so a stale completion cannot be misattributed to
// a new command on the same tag; the window is longer than the deadline, so
// a tag never recirculates while its first attempt could still complete in
// time. The deadline sits far above any loaded-device latency
// (bandwidth-bound sequential writes at QD512 can legitimately queue for
// ~20 ms in the model), so it only ever fires on genuinely lost completions.
const (
	cmdTimeout   = 100 * sim.Millisecond // per-attempt deadline
	maxRetries   = 3                     // resubmissions before the bio fails
	retryBackoff = 100 * sim.Microsecond // first retry delay; doubles per attempt
	cidReclaim   = 200 * sim.Millisecond // quarantine before a lost CID is reused
)

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
	qp       *nvme.QueuePair
	hostmem  *guestmem.Memory
	pool     *dmaPool
	irq      *sim.Thread
	irqCond  *sim.Cond
	cqe      nvme.Completion // entry the irq handler is completing
	irqDrain func()          // the handler's steps, bound once
	irqDone  func()
	inflight []pendingBio // by CID, grown as CIDs come into use; a nil bio is a free slot
	freeCIDs []uint16     // a stack: the lowest CIDs come into use first
	waitCID  *sim.Cond
	subFree  []*submission
	building *pendingBio // the entry whose PRP list listPage extends
	listPage func() uint64
	prpEntry [8]byte // BuildPRP's list-entry scratch

	lost      map[uint16]lostCID // quarantined CIDs: timed out, completion pending
	genSeq    uint32             // submission-generation sequence (stamped in CDW3)
	deadlines *sim.Deadlines     // per-attempt timeouts, keyed (CID, generation)
	retryQ    []pendingBio
	retryCond *sim.Cond
	retrying  pendingBio // the resubmission between its charge and its CID

	stepRetry, stepResubmit func() // retry and resubmit, bound once

	// Stats
	Submitted, Completed uint64
	Timeouts             uint64 // commands that hit their deadline
	Retries              uint64 // resubmissions after a timeout
	Aborts               uint64 // bios failed after exhausting retries
	Stale                uint64 // late completions for quarantined CIDs
	StaleReclaimed       uint64 // late completions for already-reclaimed tags
	Reclaimed            uint64 // quarantined CIDs recycled without a completion

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
	gen uint32
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
	cmd       nvme.Command // retryable command image (CID rewritten per attempt)
	attempts  int          // submissions so far
	gen       uint32       // generation of the current attempt
}

// NewNVMeBlockDev creates the host block device over a partition of the
// physical device. irqCore hosts the interrupt handler context.
func NewNVMeBlockDev(env *sim.Env, part device.Partition, cpu *sim.CPU, irqCore int, costs Costs) *NVMeBlockDev {
	hostmem := guestmem.New(512 << 20)
	d := &NVMeBlockDev{
		env:     env,
		dev:     part.Dev,
		nsid:    part.NSID,
		part:    part,
		costs:   costs,
		hostmem: hostmem,
		pool:    newDMAPool(hostmem),
		irq:     cpu.ThreadOn(irqCore, "kernel/irq"),
		irqCond: sim.NewCond(env),
		waitCID: sim.NewCond(env),

		lost:      make(map[uint16]lostCID),
		retryCond: sim.NewCond(env),
	}
	d.deadlines = sim.NewDeadlines(env, d.awaited, d.onTimeout)
	d.qp = part.Dev.CreateQueuePair(1024, hostmem)
	for i := 1022; i >= 0; i-- {
		d.freeCIDs = append(d.freeCIDs, uint16(i))
	}
	d.qp.CQ.OnPost = func() { d.irqCond.Signal(nil) }
	d.irqDrain, d.irqDone = d.drainCQ, d.completeCQE
	d.listPage = func() uint64 {
		pg := d.pool.get(1)
		d.building.listPages = append(d.building.listPages, pg[0])
		return pg[0]
	}
	d.stepRetry, d.stepResubmit = d.retry, d.resubmit
	// The irq handler and the retry path start waiting one event from now.
	env.After(0, d.irqWait)
	env.After(0, d.stepRetry)
	return d
}

// SetVerifier installs a protection-info verifier on the read completion
// path (nil detaches). A read whose payload fails verification completes
// with a guard-check media error instead of delivering wrong data.
func (d *NVMeBlockDev) SetVerifier(v ReadVerifier) { d.verifier = v }

// SubmitBio implements BlockDevice.
func (d *NVMeBlockDev) SubmitBio(p *sim.Proc, thread *sim.Thread, b *Bio) {
	SubmitAndWait(p, d, thread, b)
}

// submission is one SubmitFunc between its continuations: charged, then
// waiting for a CID. Recycled; its steps are bound once.
type submission struct {
	d       *NVMeBlockDev
	b       *Bio
	then    func()
	lba     uint64
	blocks  uint32
	charged func() // charge, bound once
	gated   func() // gate, bound once
}

// SubmitFunc implements BlockDevice: the submission cost is charged to
// thread, then the bio waits for a free CID and a free SQ slot, and then
// runs once the command is on the queue. A bio reaching outside the
// partition fails LBAOutOfRange without touching the device: the sectors
// come from whoever sits above — for the virtio baselines, the guest.
func (d *NVMeBlockDev) SubmitFunc(thread *sim.Thread, b *Bio, then func()) {
	var s *submission
	if n := len(d.subFree); n > 0 {
		s, d.subFree = d.subFree[n-1], d.subFree[:n-1]
	} else {
		s = &submission{d: d}
		s.charged, s.gated = s.charge, s.gate
	}
	s.b, s.then = b, then
	thread.ExecFunc(d.costs.Submit, s.charged)
}

// release recycles s and returns what its caller still needs.
func (s *submission) release() (*Bio, func()) {
	b, then := s.b, s.then
	s.b, s.then = nil, nil
	s.d.subFree = append(s.d.subFree, s)
	return b, then
}

func (s *submission) charge() {
	d, b := s.d, s.b
	if b.Op != BioFlush {
		var ok bool
		if s.lba, s.blocks, ok = d.part.TranslateSectors(b.Sector, b.sectors()); !ok {
			b, then := s.release()
			if b.OnDone != nil {
				b.OnDone(nvme.SCLBAOutOfRange)
			}
			then()
			return
		}
	}
	s.gate()
}

// gate waits, as often as it takes, for a free CID and SQ slot, then builds
// and queues the command.
func (s *submission) gate() {
	d := s.d
	if len(d.freeCIDs) == 0 || d.qp.SQ.Full() {
		d.waitCID.WaitFunc(s.gated)
		return
	}
	lba, blocks := s.lba, s.blocks
	b, then := s.release()
	cid := d.takeCID()

	pend := &d.inflight[cid]
	*pend = pendingBio{bio: b, listPages: pend.listPages[:0]}
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
		d.building = pend
		prp1, prp2, err := nvme.BuildPRP(d.hostmem, pend.pages, d.listPage, &d.prpEntry)
		d.building = nil
		if err != nil {
			// A malformed transfer fails this one bio, not the whole sim.
			d.releaseDMA(pend)
			pend.bio = nil
			d.freeCIDs = append(d.freeCIDs, cid)
			d.waitCID.Signal(nil)
			if b.OnDone != nil {
				b.OnDone(nvme.SCInternal)
			}
			then()
			return
		}
		cmd = nvme.NewRW(op, cid, d.nsid, lba, blocks, prp1, prp2)
	}
	pend.cmd = cmd
	d.push(cid)
	then()
}

// takeCID takes a free CID, growing the in-flight table to cover it.
func (d *NVMeBlockDev) takeCID() uint16 {
	cid := d.freeCIDs[len(d.freeCIDs)-1]
	d.freeCIDs = d.freeCIDs[:len(d.freeCIDs)-1]
	for int(cid) >= len(d.inflight) {
		d.inflight = append(d.inflight, pendingBio{})
	}
	return cid
}

// push submits the command of the entry installed under cid and arms the
// deadline. Every attempt is stamped with a fresh generation so the irq
// handler can match completions to the attempt that earned them. The caller
// has passed the free-CID gate, which checks the SQ too, and nothing ran
// since: the push cannot find the SQ full.
func (d *NVMeBlockDev) push(cid uint16) {
	pend := &d.inflight[cid]
	pend.attempts++
	d.genSeq++
	pend.gen = d.genSeq
	pend.cmd.SetCDW(genDW, pend.gen)
	pend.cmd.SetCID(cid)
	if !d.qp.SQ.Push(&pend.cmd) {
		panic("blockdev: SQ full past the free-CID gate")
	}
	d.Submitted++
	d.dev.Ring(d.qp.SQ.ID)
	// The deadline is queued by (CID, generation), never as a closure over
	// pend: a timer that can reach pend keeps the bio's payload alive for
	// the whole Timeout after the bio completed.
	d.deadlines.Add(uint32(cid), pend.gen, d.env.Now().Add(cmdTimeout))
}

// awaited reports whether attempt gen still occupies cid.
func (d *NVMeBlockDev) awaited(cid, gen uint32) bool {
	return int(cid) < len(d.inflight) && d.inflight[cid].bio != nil && d.inflight[cid].gen == gen
}

// onTimeout aborts an attempt that missed its deadline: the CID is
// quarantined against late completions and the command is either
// resubmitted after exponential backoff or failed to the bio issuer.
// Runs in scheduler callback context (non-blocking).
func (d *NVMeBlockDev) onTimeout(id, _ uint32) {
	cid := uint16(id)
	pend := d.inflight[cid]
	d.Timeouts++
	d.inflight[cid] = pendingBio{listPages: pend.listPages[:0:0]}
	d.quarantine(cid, pend.gen)
	if pend.attempts > maxRetries {
		d.Aborts++
		d.finishBio(&pend, nvme.SCAbortRequested)
		return
	}
	d.env.After(sim.Backoff(retryBackoff, 0, pend.attempts, 0, nil), func() {
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
	entry := lostCID{gen: gen}
	d.lost[cid] = entry
	d.env.After(cidReclaim, func() {
		if e, ok := d.lost[cid]; ok && e == entry {
			delete(d.lost, cid)
			d.Reclaimed++
			d.freeCIDs = append(d.freeCIDs, cid)
			d.waitCID.Signal(nil)
		}
	})
}

// retry resubmits timed-out commands once their backoff elapses, as a
// continuation on the irq thread like the interrupt handler: wait for one,
// charge Submit, wait for a CID, push it, and look again.
func (d *NVMeBlockDev) retry() {
	if len(d.retryQ) == 0 {
		d.retryCond.WaitFunc(d.stepRetry)
		return
	}
	d.retrying = d.retryQ[0]
	d.retryQ[0] = pendingBio{}
	d.retryQ = d.retryQ[1:]
	d.irq.ExecFunc(d.costs.Submit, d.stepResubmit)
}

func (d *NVMeBlockDev) resubmit() {
	if len(d.freeCIDs) == 0 || d.qp.SQ.Full() {
		d.waitCID.WaitFunc(d.stepResubmit)
		return
	}
	cid := d.takeCID()
	d.Retries++
	d.inflight[cid], d.retrying = d.retrying, pendingBio{}
	d.push(cid)
	d.retry()
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
	if int(cid) < len(d.inflight) && d.inflight[cid].bio != nil && d.inflight[cid].gen == gen {
		pend := d.inflight[cid]
		d.inflight[cid] = pendingBio{listPages: pend.listPages[:0]}
		d.freeCIDs = append(d.freeCIDs, cid)
		d.waitCID.Signal(nil)
		d.finishBio(&pend, d.cqe.Status())
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
	pend.listPages = pend.listPages[:0]
}
