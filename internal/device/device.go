package device

import (
	"bytes"

	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// Params is the device service-time model. The defaults approximate the
// paper's Samsung 970 EVO Plus 1TB: ~13 kIOPS random read at QD1 (≈78 µs
// device latency), ~600 kIOPS read saturation, SLC-cached writes around
// 25 µs, and ~3.3/3.2 GB/s sequential read/write bandwidth.
type Params struct {
	LBAShift uint8  // log2 block size
	Blocks   uint64 // namespace size in blocks

	ReadBase  sim.Duration // media read latency per command
	WriteBase sim.Duration // SLC-cache write latency per command
	FlushLat  sim.Duration // flush latency
	CtrlOver  sim.Duration // controller frontend per-command cost (caps IOPS)
	Parallel  int          // internal units (channels x dies)
	ReadBW    float64      // bytes/sec sequential read
	WriteBW   float64      // bytes/sec sequential write
	BusOver   sim.Duration // per-command bus/DMA setup overhead

	JitterPct int // +/- uniform jitter applied to base latency, in percent
	TailProb  int // 1-in-N commands take TailMult x base latency (0=never)
	TailMult  int
}

// Default970EvoPlus returns the calibrated parameter set used by the
// evaluation harness.
func Default970EvoPlus() Params {
	return Params{
		LBAShift:  9,
		Blocks:    1 << 31, // 1 TB at 512B LBAs
		ReadBase:  78 * sim.Microsecond,
		WriteBase: 24 * sim.Microsecond,
		FlushLat:  150 * sim.Microsecond,
		CtrlOver:  1500 * sim.Nanosecond,
		Parallel:  48,
		ReadBW:    3.3e9,
		WriteBW:   3.2e9,
		BusOver:   1500 * sim.Nanosecond,
		JitterPct: 8,
		TailProb:  200,
		TailMult:  4,
	}
}

// BlockSize returns the logical block size in bytes.
func (p Params) BlockSize() uint32 { return 1 << p.LBAShift }

// Namespace is one NVM namespace on the device.
type Namespace struct {
	ID    uint32
	Info  nvme.NamespaceInfo
	Store Store
}

// queueState tracks one hardware queue pair.
type queueState struct {
	qp    *nvme.QueuePair
	mem   nvme.Memory // DMA context for commands on this queue
	fetch func()      // SQ fetch callback, bound once
	armed bool        // SQ found empty: the next doorbell schedules fetch
}

// Device is the simulated NVMe SSD.
type Device struct {
	env    *sim.Env
	p      Params
	ctrl   *sim.Resource // command frontend (serialized fetch/decode/DMA setup)
	units  *sim.Resource // internal parallel units
	rbus   *sim.Resource // read DMA engine (bandwidth)
	wbus   *sim.Resource // write DMA engine
	ns     map[uint32]*Namespace
	queues map[uint16]*queueState
	nextQ  uint16
	inj    *fault.Injector
	free   []*cmdState // idle command states; in-flight ones are bounded by queue depth

	// Reusable read-side buffers. Only valid within one callback: every
	// Store.ReadBlocks fully overwrites its buffer, and no other command
	// can interleave before the callback returns.
	scratch, scratch2 []byte

	// Stats
	Reads, Writes, Others uint64
	BytesRead, BytesWrit  uint64
	MediaErrors           uint64 // injected media-error completions
	DroppedComps          uint64 // completions suppressed by fault injection
	StuckComps            uint64 // completions delayed by fault injection
}

// New creates a device with one namespace (NSID 1) over the given store.
func New(env *sim.Env, p Params, store Store) *Device {
	d := &Device{
		env:    env,
		p:      p,
		ctrl:   sim.NewResource(env, 1),
		units:  sim.NewResource(env, p.Parallel),
		rbus:   sim.NewResource(env, 1),
		wbus:   sim.NewResource(env, 1),
		ns:     make(map[uint32]*Namespace),
		queues: make(map[uint16]*queueState),
	}
	d.AddNamespace(1, p.Blocks, store)
	return d
}

// Params returns the device model parameters.
func (d *Device) Params() Params { return d.p }

// InjectFaults attaches a fault injector to the device's command path (nil
// detaches). Decisions are drawn once per handled command, in arrival
// order, so a fixed seed yields a fixed fault trace.
func (d *Device) InjectFaults(inj *fault.Injector) { d.inj = inj }

// FaultInjector returns the attached injector, or nil.
func (d *Device) FaultInjector() *fault.Injector { return d.inj }

// classOf maps an opcode to the injector's command class.
func classOf(op uint8) fault.Class {
	switch op {
	case nvme.OpRead, nvme.OpCompare:
		return fault.ClassRead
	case nvme.OpWrite, nvme.OpWriteZeroes:
		return fault.ClassWrite
	}
	return fault.ClassOther
}

// AddNamespace attaches an additional namespace.
func (d *Device) AddNamespace(id uint32, blocks uint64, store Store) *Namespace {
	n := &Namespace{
		ID:    id,
		Info:  nvme.NamespaceInfo{Size: blocks, Capacity: blocks, LBAShift: d.p.LBAShift},
		Store: store,
	}
	d.ns[id] = n
	return n
}

// Namespace returns namespace id, or nil.
func (d *Device) Namespace(id uint32) *Namespace { return d.ns[id] }

// NextNSID returns the lowest unused namespace ID — where the snapshot
// layer attaches the next clone.
func (d *Device) NextNSID() uint32 {
	id := uint32(1)
	for d.ns[id] != nil {
		id++
	}
	return id
}

// Identify returns the controller identify page contents.
func (d *Device) Identify() nvme.ControllerInfo {
	return nvme.ControllerInfo{
		VID: 0x144d, Serial: "S4EVNF0M970EVO+", Model: "Samsung SSD 970 EVO Plus 1TB (simulated)",
		Firmware: "2B2QEXM7", NN: uint32(len(d.ns)), MaxXfer: 5, SQES: 6, CQES: 4,
	}
}

// CreateQueuePair allocates a hardware I/O queue pair of the given depth,
// with DMA performed against mem. It returns the pair; the caller rings the
// doorbell via Ring after pushing to the SQ. This mirrors the host driver's
// Create I/O SQ/CQ admin commands.
func (d *Device) CreateQueuePair(depth uint32, mem nvme.Memory) *nvme.QueuePair {
	d.nextQ++
	id := d.nextQ
	qp := nvme.NewQueuePair(id, depth)
	st := &queueState{qp: qp, mem: mem}
	st.fetch = func() { d.fetch(st) }
	d.queues[id] = st
	d.env.After(0, st.fetch) // the controller looks at a new SQ once unprompted
	return qp
}

// Ring notifies the device that new commands were pushed to the queue's SQ
// (the submission doorbell write). It is asynchronous and free for the
// caller: MMIO posted writes cost nothing on the CPU side.
func (d *Device) Ring(qid uint16) {
	if st := d.queues[qid]; st != nil && st.armed {
		st.armed = false
		d.env.After(0, st.fetch)
	}
}

// fetch drains the SQ, starting one command state per entry. Doorbells that
// arrive while a fetch is scheduled are absorbed by it.
func (d *Device) fetch(st *queueState) {
	var cmd nvme.Command
	for st.qp.SQ.Pop(&cmd) {
		d.env.After(0, d.getCmd(st, &cmd).step)
	}
	st.armed = true
}

// jittered applies deterministic pseudo-random latency variation.
func (d *Device) jittered(base sim.Duration) sim.Duration {
	if d.p.JitterPct > 0 {
		span := int64(base) * int64(d.p.JitterPct) / 100
		base += sim.Duration(d.env.Rand().Int63n(2*span+1) - span)
	}
	if d.p.TailProb > 0 && d.env.Rand().Intn(d.p.TailProb) == 0 {
		base *= sim.Duration(d.p.TailMult)
	}
	return base
}

// after schedules fn like a process Sleep would: a negative d is now.
func (d *Device) after(dur sim.Duration, fn func()) {
	if dur < 0 {
		dur = 0
	}
	d.env.After(dur, fn)
}

// leg is one stop of a command's walk through the device: queue FIFO for
// res (nil: nothing to queue for), stay for dur, release. With jit, dur is
// a base latency drawn through jittered once the unit is granted.
type leg struct {
	res *sim.Resource
	dur sim.Duration
	jit bool
}

// Phases of the current leg, then of the completion.
const (
	phAcquire = iota // queue for the leg's resource
	phHold           // granted: stay for the leg's duration
	phRelease        // duration over: release, next leg
	phPost           // service and fault decision done: post until the CQ takes it
)

// cmdState is one in-flight command. A device command runs on no CPU
// thread — it only queues on resources and sleeps — so it is a continuation
// on the scheduler's callback tier, not a process: every resource grant and
// timer expiry re-enters step, which pushes at most one further event, at
// the point a handler process would have parked.
type cmdState struct {
	d    *Device
	st   *queueState
	step func() // c.run, bound once
	cmd  nvme.Command

	legs  [3]leg // frontend, then what decode adds: media and bus, or one plain delay
	n, pc int
	phase int

	status nvme.Status
	ns     *Namespace
	segs   []nvme.Segment // the command's PRP walk, appended into from one command to the next
	entry  [8]byte        // PRP list entry scratch for the walk
	buf    []byte         // write payload, grow-only: it outlives the bus and media legs
}

func (d *Device) getCmd(st *queueState, cmd *nvme.Command) *cmdState {
	var c *cmdState
	if n := len(d.free); n > 0 {
		c = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		c = &cmdState{d: d}
		c.step = c.run
	}
	// Controller frontend: command fetch, decode, DMA descriptor setup.
	c.legs[0] = leg{res: d.ctrl, dur: d.p.CtrlOver}
	c.st, c.cmd, c.n, c.pc, c.phase, c.status = st, *cmd, 1, 0, phAcquire, nvme.SCSuccess
	return c
}

func (d *Device) putCmd(c *cmdState) {
	c.st, c.ns, c.segs = nil, nil, c.segs[:0]
	d.free = append(d.free, c)
}

func (c *cmdState) run() {
	d := c.d
	for c.pc < c.n {
		l := &c.legs[c.pc]
		switch c.phase {
		case phAcquire:
			c.phase = phHold
			if l.res != nil && !l.res.AcquireFunc(c.step) {
				return
			}
		case phHold:
			c.phase = phRelease
			dur := l.dur
			if l.jit {
				dur = d.jittered(dur)
			}
			d.after(dur, c.step)
			return
		case phRelease:
			if l.res != nil {
				l.res.Release()
			}
			c.phase = phAcquire
			if c.pc++; c.pc == 1 {
				c.decode()
			}
		}
	}
	if c.phase != phPost {
		c.phase = phPost
		if c.n > 1 {
			c.finish()
		}
		// Fault injection: a media error overrides a successful status; a drop
		// suppresses the completion; a stuck completion is held before posting.
		if fd := d.inj.Decide(classOf(c.cmd.Opcode())); fd.Faulty() {
			if !fd.Status.OK() && c.status.OK() {
				c.status = fd.Status
				d.MediaErrors++
			}
			if fd.Drop {
				d.DroppedComps++
				d.putCmd(c)
				return
			}
			if fd.Delay > 0 {
				d.StuckComps++
				d.after(fd.Delay, c.step)
				return
			}
		}
	}
	// Post the completion; retry if the consumer has not drained the CQ.
	// DW0 is command-specific in real NVMe; this controller echoes the
	// reserved CDW3 so drivers can stamp a submission generation there
	// and detect late completions for reclaimed tags (blockdev quarantine).
	qp := c.st.qp
	if !qp.CQ.Post(c.cmd.CID(), qp.SQ.ID, qp.SQ.Head(), c.status, c.cmd.CDW(3)) {
		d.after(5*sim.Microsecond, c.step)
		return
	}
	d.putCmd(c)
}

// decode runs as the frontend lets go of the command: it validates it,
// copies write data out of guest memory and adds the opcode's legs. A
// rejected command adds none and completes with c.status.
func (c *cmdState) decode() {
	d, cmd := c.d, &c.cmd
	delay := func(base sim.Duration) {
		d.Others++
		c.legs[1], c.n = leg{dur: base, jit: true}, 2
	}
	switch op := cmd.Opcode(); op {
	case nvme.OpRead, nvme.OpCompare, nvme.OpWrite, nvme.OpWriteZeroes:
		if c.ns, c.status = d.checkRange(cmd); !c.status.OK() {
			return
		}
		nbytes := cmd.Blocks() << d.p.LBAShift
		if op != nvme.OpWriteZeroes {
			var err error
			if c.segs, err = nvme.AppendPRP(c.segs[:0], &c.entry, c.st.mem, cmd.PRP1(), cmd.PRP2(), nbytes); err != nil {
				c.status = nvme.SCDataXferError
				return
			}
		}
		bus := func(res *sim.Resource, bw float64) leg {
			return leg{res: res, dur: d.p.BusOver + sim.Duration(float64(nbytes)/bw*1e9)}
		}
		switch op {
		case nvme.OpRead, nvme.OpCompare:
			c.legs[1] = leg{res: d.units, dur: d.p.ReadBase, jit: true}
			c.legs[2], c.n = bus(d.rbus, d.p.ReadBW), 3
		case nvme.OpWrite:
			buf := scratchBuf(&c.buf, nbytes)
			if err := nvme.ReadSegments(c.st.mem, c.segs, buf); err != nil {
				c.status = nvme.SCDataXferError
				return
			}
			c.legs[1] = bus(d.wbus, d.p.WriteBW)
			c.legs[2], c.n = leg{res: d.units, dur: d.p.WriteBase, jit: true}, 3
		case nvme.OpWriteZeroes:
			clear(scratchBuf(&c.buf, nbytes))
			c.legs[1], c.n = leg{res: d.units, dur: d.p.WriteBase, jit: true}, 2
		}
	case nvme.OpFlush:
		delay(d.p.FlushLat)
	case nvme.OpDSM:
		// Deallocate: model as near-free metadata update.
		if c.ns, c.status = d.checkRange(cmd); c.status.OK() {
			delay(5 * sim.Microsecond)
		}
	default:
		if op < nvme.OpVendorStart {
			c.status = nvme.SCInvalidOpcode
			return
		}
		// Vendor commands complete quickly with success; NVMetro's
		// compatibility claim is that these pass through untouched.
		delay(10 * sim.Microsecond)
	}
}

// finish moves the data of a command whose legs have all run.
func (c *cmdState) finish() {
	d, cmd, mem := c.d, &c.cmd, c.st.mem
	nbytes := cmd.Blocks() << d.p.LBAShift
	switch cmd.Opcode() {
	case nvme.OpRead:
		buf := scratchBuf(&d.scratch, nbytes)
		c.ns.Store.ReadBlocks(cmd.SLBA(), buf)
		if err := nvme.WriteSegments(mem, c.segs, buf); err != nil {
			c.status = nvme.SCDataXferError
			return
		}
		d.Reads++
		d.BytesRead += uint64(nbytes)
	case nvme.OpWrite, nvme.OpWriteZeroes:
		c.ns.Store.WriteBlocks(cmd.SLBA(), c.buf[:nbytes])
		d.Writes++
		d.BytesWrit += uint64(nbytes)
	case nvme.OpCompare:
		want := scratchBuf(&d.scratch, nbytes)
		if err := nvme.ReadSegments(mem, c.segs, want); err != nil {
			c.status = nvme.SCDataXferError
			return
		}
		have := scratchBuf(&d.scratch2, nbytes)
		c.ns.Store.ReadBlocks(cmd.SLBA(), have)
		if !bytes.Equal(want, have) {
			c.status = nvme.SCCompareFailure
			return
		}
		d.Others++
	case nvme.OpDSM:
		c.ns.Store.TrimBlocks(cmd.SLBA(), cmd.Blocks())
	}
}

// scratchBuf returns *sp resized to n bytes, reallocating only on growth.
// Callers must fully overwrite the buffer (stale contents survive reuse).
func scratchBuf(sp *[]byte, n uint32) []byte {
	if cap(*sp) < int(n) {
		*sp = make([]byte, n)
	}
	return (*sp)[:n]
}

func (d *Device) checkRange(cmd *nvme.Command) (*Namespace, nvme.Status) {
	ns := d.ns[cmd.NSID()]
	if ns == nil {
		return nil, nvme.SCInvalidNS
	}
	// The guest owns SLBA: lba+blocks may wrap, size-lba cannot.
	if lba, size := cmd.SLBA(), ns.Info.Size; lba > size || uint64(cmd.Blocks()) > size-lba {
		return nil, nvme.SCLBAOutOfRange
	}
	return ns, nvme.SCSuccess
}
