package uif

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// The lockstep handlers are one storage function written twice, once for the
// reactor and once for the process reference, with the shapes of the real
// ones: reads served after a charge (the encryptor's decrypt, a cache hit),
// read from the backend then charged (a cache fill), or completed from
// another context later (the SGX enclave); writes charged then written with
// the completion by status (the encryptor), written with a continuation (the
// replicator), or handed back to a polling thread from another context (the
// SGX encryptor's write); and an opcode refused on the spot.
const (
	lsRead, lsFill, lsOffload = 700 * sim.Nanosecond, 300 * sim.Nanosecond, 400 * sim.Nanosecond
	lsWrite, lsMirror         = 900 * sim.Nanosecond, 500 * sim.Nanosecond
	lsEnclaveRead             = 2500 * sim.Nanosecond
	lsEnclaveWrite            = 3000 * sim.Nanosecond
)

type lsHandler struct {
	env *sim.Env
	log *[]string

	stepRead, stepFilled, stepOffload, stepWrite, stepMirror, stepOffloadWrite Step
	stepFillDone                                                               RingStep
	stepMirrored                                                               RingStep
}

func newLSHandler(env *sim.Env, log *[]string) *lsHandler {
	h := &lsHandler{env: env, log: log}
	h.stepRead, h.stepFilled, h.stepOffload = h.read, h.filled, h.offload
	h.stepWrite, h.stepMirror, h.stepOffloadWrite = h.write, h.mirror, h.offloadWrite
	h.stepFillDone, h.stepMirrored = h.fillDone, h.mirrored
	return h
}

func (h *lsHandler) Work(th *sim.Thread, req *Request) {
	lba := req.Cmd.SLBA() / 8
	req.Buf = req.Buffer(int(req.NBytes()))
	if req.Cmd.Opcode() == nvme.OpRead {
		switch lba % 4 {
		case 0:
			th.ExecFunc(lsRead, req.Then(h.stepRead))
		case 1:
			req.SubmitBackendReadThen(th, req.Buf, h.stepFillDone)
		case 2:
			th.ExecFunc(lsOffload, req.Then(h.stepOffload))
		default:
			req.Done(nvme.SCInvalidField)
		}
		return
	}
	if err := req.ReadData(req.Buf); err != nil {
		req.Done(nvme.SCDataXferError)
		return
	}
	switch lba % 3 {
	case 0:
		th.ExecFunc(lsWrite, req.Then(h.stepWrite))
	case 1:
		th.ExecFunc(lsMirror, req.Then(h.stepMirror))
	default:
		th.ExecFunc(lsOffload, req.Then(h.stepOffloadWrite))
	}
}

func (h *lsHandler) read(_ *sim.Thread, req *Request) {
	req.WriteData(req.Buf)
	req.Done(nvme.SCSuccess)
}

func (h *lsHandler) fillDone(th *sim.Thread, req *Request, st nvme.Status) {
	if !st.OK() {
		req.CompleteAsync(st)
		return
	}
	th.ExecFunc(lsFill, req.Then(h.stepFilled))
}

func (h *lsHandler) filled(_ *sim.Thread, req *Request) {
	req.WriteData(req.Buf)
	req.CompleteAsync(nvme.SCSuccess)
}

func (h *lsHandler) offload(_ *sim.Thread, req *Request) {
	h.env.After(lsEnclaveRead, func() { req.CompleteAsync(nvme.SCSuccess) })
	req.Pend()
}

func (h *lsHandler) write(th *sim.Thread, req *Request) {
	req.SubmitBackendWriteThen(th, req.Buf, nil)
}

func (h *lsHandler) mirror(th *sim.Thread, req *Request) {
	req.SubmitBackendWriteThen(th, req.Buf, h.stepMirrored)
}

func (h *lsHandler) mirrored(_ *sim.Thread, req *Request, st nvme.Status) {
	*h.log = append(*h.log, fmt.Sprintf("%v mirrored tag%d %v", h.env.Now(), req.Tag, st))
	req.CompleteAsync(st)
}

func (h *lsHandler) offloadWrite(_ *sim.Thread, req *Request) {
	h.env.After(lsEnclaveWrite, func() { req.Defer(h.stepWrite) })
	req.Pend()
}

// lsRefHandler is lsHandler in the process form.
type lsRefHandler struct {
	env *sim.Env
	log *[]string
}

func (h *lsRefHandler) Work(p *sim.Proc, th *sim.Thread, req *refRequest) (bool, nvme.Status) {
	lba := req.Cmd.SLBA() / 8
	buf := req.Buffer(int(req.NBytes()))
	if req.Cmd.Opcode() == nvme.OpRead {
		switch lba % 4 {
		case 0:
			th.Exec(p, lsRead)
			req.WriteData(buf)
			return false, nvme.SCSuccess
		case 1:
			req.SubmitBackendReadThen(p, th, buf, func(p *sim.Proc, th *sim.Thread, st nvme.Status) {
				if !st.OK() {
					req.CompleteAsync(st)
					return
				}
				th.Exec(p, lsFill)
				req.WriteData(buf)
				req.CompleteAsync(nvme.SCSuccess)
			})
			return true, 0
		case 2:
			th.Exec(p, lsOffload)
			h.env.After(lsEnclaveRead, func() { req.CompleteAsync(nvme.SCSuccess) })
			return true, 0
		default:
			return false, nvme.SCInvalidField
		}
	}
	if err := req.ReadData(buf); err != nil {
		return false, nvme.SCDataXferError
	}
	switch lba % 3 {
	case 0:
		th.Exec(p, lsWrite)
		req.SubmitBackendWrite(p, th, buf)
	case 1:
		th.Exec(p, lsMirror)
		req.SubmitBackendWriteThen(p, th, buf, func(p *sim.Proc, th *sim.Thread, st nvme.Status) {
			*h.log = append(*h.log, fmt.Sprintf("%v mirrored tag%d %v", h.env.Now(), req.Tag, st))
			req.CompleteAsync(st)
		})
	default:
		th.Exec(p, lsOffload)
		h.env.After(lsEnclaveWrite, func() {
			req.att.Defer(func(p *sim.Proc, th *sim.Thread) { req.SubmitBackendWrite(p, th, buf) })
		})
	}
	return true, 0
}

// lsWorld is one side of the lockstep: two VMs behind one framework, each
// with its own io_uring over one NVMe block device.
type lsWorld struct {
	env   *sim.Env
	cpu   *sim.CPU
	vcs   []*core.Controller
	qps   []*nvme.QueuePair
	rings []*blockdev.URing
	parts []device.Partition
	log   []string

	// The reactor, or the reference.
	f     *Framework
	atts  []*Attachment
	rf    *refFramework
	ratts []*refAttachment
}

const lsDepth = 64

func newLSWorld(seed int64, reference bool) *lsWorld {
	env := sim.New(seed)
	cpu := sim.NewCPU(env, 16)
	dev := device.New(env, device.Default970EvoPlus(), device.NewMemStore(512))
	router := core.NewRouter(env, core.DefaultRouterCosts(), []*sim.Thread{cpu.ThreadOn(8, "router")})
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), cpu, 14, blockdev.DefaultCosts())
	w := &lsWorld{env: env, cpu: cpu}
	// One poller shares the router's core: each waits for the other.
	threads := []*sim.Thread{cpu.ThreadOn(8, "uif"), cpu.ThreadOn(9, "uif")}
	if reference {
		w.rf = newRefFramework(env, DefaultCosts(), threads)
	} else {
		w.f = NewFramework(env, DefaultCosts(), threads)
	}
	for i, part := range device.Carve(dev, 1, 2) {
		vc := router.Attach(vm.New(env, i, cpu, i, 1, 1<<20, vm.DefaultVirtCosts()), part)
		vc.SetNativeClassifier(func([]byte) uint64 { return core.ActSendNQ | core.ActWillCompleteNQ })
		w.vcs, w.parts = append(w.vcs, vc), append(w.parts, part)
		w.qps = append(w.qps, vc.CreateQP(64))
		w.rings = append(w.rings, blockdev.NewURing(env, bdev, blockdev.DefaultURingCosts()))
		w.attach(i)
	}
	return w
}

// attach attaches a new generation of VM i's function on fresh notify
// queues, sharing the VM's ring with the generations before it.
func (w *lsWorld) attach(i int) {
	nq := w.vcs[i].AttachUIF(lsDepth)
	if w.rf != nil {
		att := w.rf.Attach(nq, &lsRefHandler{env: w.env, log: &w.log}, w.rings[i])
		if i < len(w.ratts) {
			w.ratts[i] = att
		} else {
			w.ratts = append(w.ratts, att)
		}
		return
	}
	att := w.f.Attach(nq, newLSHandler(w.env, &w.log), w.rings[i])
	if i < len(w.atts) {
		w.atts[i] = att
	} else {
		w.atts = append(w.atts, att)
	}
}

func (w *lsWorld) kill(i int) {
	if w.rf != nil {
		w.ratts[i].Kill()
	} else {
		w.atts[i].Kill()
	}
}

func (w *lsWorld) wedge(i int, d sim.Duration) {
	if w.rf != nil {
		w.ratts[i].Wedge(d)
	} else {
		w.atts[i].Wedge(d)
	}
}

func (w *lsWorld) arm(i int, inj *fault.Injector) {
	if w.rf != nil {
		w.ratts[i].SetFaultInjector(inj)
	} else {
		w.atts[i].SetFaultInjector(inj)
	}
}

// backend queues a host-side ring I/O on VM i's current generation, as a
// resync leg does, and logs its outcome.
func (w *lsWorld) backend(i int, op blockdev.BioOp, sector uint64) {
	buf := make([]byte, 4096)
	logf := func(st nvme.Status) {
		w.log = append(w.log, fmt.Sprintf("%v backend vm%d %v@%d %v", w.env.Now(), i, op, sector, st))
	}
	if w.rf != nil {
		w.ratts[i].SubmitBackendIO(op, sector, buf, func(_ *sim.Proc, _ *sim.Thread, st nvme.Status) { logf(st) })
		return
	}
	w.atts[i].SubmitBackendIO(op, sector, buf, logf)
}

// books is what the two sides must agree on at a run limit.
func (w *lsWorld) books(since sim.CPUSnapshot) string {
	var b strings.Builder
	use := w.cpu.Since(since)
	fmt.Fprintf(&b, "t=%v dispatched=%d", w.env.Now(), w.env.Dispatched())
	for _, tag := range use.Tags() {
		fmt.Fprintf(&b, " %s=%d", tag, use.ByTag[tag])
	}
	if w.rf != nil {
		f := w.rf
		fmt.Fprintf(&b, " polls=%d wakes=%d stale=%d", f.Polls, f.Wakes, f.StaleRingComps)
		for _, att := range f.atts {
			fmt.Fprintf(&b, " [%v progress=%d events=%d async=%d crash=%d wedge=%d]", att.state, att.Progress(), att.Events, att.AsyncDone, att.CrashFaults, att.WedgeFaults)
		}
	} else {
		f := w.f
		fmt.Fprintf(&b, " polls=%d wakes=%d stale=%d", f.Polls, f.Wakes, f.StaleRingComps)
		for _, att := range f.atts {
			fmt.Fprintf(&b, " [%v progress=%d events=%d async=%d crash=%d wedge=%d]", att.state, att.Progress(), att.Events, att.AsyncDone, att.CrashFaults, att.WedgeFaults)
		}
	}
	fmt.Fprintf(&b, " log=%d", len(w.log))
	return b.String()
}

// runLS runs the lockstep scenario on one side and returns its books at
// every run limit and its log.
func runLS(seed int64, reference bool) (books []string, log []string) {
	w := newLSWorld(seed, reference)
	env := w.env
	defer env.Close()
	plan := fault.NewPlan(seed).WithUIFCrash(0.01, 1).WithUIFWedge(0.03, 6, 15*sim.Microsecond)
	w.arm(1, plan.Injector("uif1"))
	// Each guest submits at random instants and logs every completion.
	for i := range w.vcs {
		vc, qp, base := w.vcs[i], w.qps[i], w.parts[i].Start
		rng := rand.New(rand.NewSource(seed*10 + int64(i)))
		env.Go(fmt.Sprintf("guest%d", i), func(p *sim.Proc) {
			var cqe nvme.Completion
			for step := 0; ; step++ {
				p.Sleep(sim.Duration(200 + rng.Intn(3000)))
				for qp.CQ.Pop(&cqe) {
					w.log = append(w.log, fmt.Sprintf("%v vm%d cid%d %v", p.Now(), i, cqe.CID(), cqe.Status()))
				}
				op := uint8(nvme.OpRead)
				if rng.Intn(2) == 0 {
					op = nvme.OpWrite
				}
				cmd := nvme.NewRW(op, uint16(step), 1, base+uint64(rng.Intn(4096))*8, 8, uint64(rng.Intn(200))*4096, 0)
				if qp.SQ.Push(&cmd) {
					vc.Ring(qp.SQ.ID)
				}
			}
		})
	}
	// Host-side backend I/O, as resync legs queue it.
	var backlog func()
	n := 0
	backlog = func() {
		n++
		op := blockdev.BioRead
		if n%3 == 0 {
			op = blockdev.BioWrite
		}
		w.backend(n%2, op, uint64(n%512)*8)
		env.After(37*sim.Microsecond, backlog)
	}
	env.After(50*sim.Microsecond, backlog)
	// A stall, a death mid-flight and a new generation sharing the ring:
	// the dead generation's completions are reaped by the new one, stale.
	env.At(sim.Time(sim.Millisecond), func() { w.wedge(0, 30*sim.Microsecond) })
	env.At(sim.Time(2*sim.Millisecond), func() { w.kill(0) })
	env.At(sim.Time(2*sim.Millisecond+200*sim.Microsecond), func() { w.attach(0) })
	// VM 1's injected crash, if it came, is restarted too.
	env.At(sim.Time(3*sim.Millisecond), func() { w.kill(1); w.attach(1) })
	start := w.cpu.Snapshot()
	for k := 1; k <= 60; k++ {
		env.RunUntil(sim.Time(sim.Duration(k) * 70 * sim.Microsecond))
		books = append(books, w.books(start))
	}
	return books, w.log
}

// TestReactorLockstepWithProcessLoop holds the reactor to the process poll
// loop it replaced, run side by side on the same scenario: two VMs, two
// pollers (one sharing the router's core), handlers of every shape the
// storage functions have (the SGX encryptor's included), host-side backlog
// I/O, an injected crash and stalls, a stall and a kill from outside, and
// new generations reaping their dead predecessors' completions (a full NCQ
// is a panic in both forms, so the notify queues are as deep as the guest
// queues). At every run limit the two must agree on the
// instant, the events dispatched, the CPU time of every tag, the polls,
// wakes and stale completions, and every attachment's state, progress and
// counters; and on every completion and callback, in order, with its
// instant.
func TestReactorLockstepWithProcessLoop(t *testing.T) {
	var crashes, wedges, stale int
	for seed := int64(1); seed <= 4; seed++ {
		ref, refLog := runLS(seed, true)
		got, gotLog := runLS(seed, false)
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("seed %d: the books diverge at limit %d:\n reactor: %s\n process: %s", seed, k, got[k], ref[k])
			}
		}
		for k := range refLog {
			if k >= len(gotLog) || gotLog[k] != refLog[k] {
				t.Fatalf("seed %d: log entry %d differs:\n reactor: %q\n process: %q", seed, k, gotLog[min(k, len(gotLog)-1)], refLog[k])
			}
		}
		if len(gotLog) != len(refLog) {
			t.Fatalf("seed %d: %d log entries, the process loop logged %d", seed, len(gotLog), len(refLog))
		}
		last := ref[len(ref)-1]
		crashes += sumCounter(last, "crash")
		wedges += sumCounter(last, "wedge")
		stale += sumCounter(last, "stale")
	}
	if crashes == 0 || wedges == 0 || stale == 0 {
		t.Fatalf("weak scenario: %d injected crashes, %d injected stalls, %d stale completions over 4 seeds", crashes, wedges, stale)
	}
}

// sumCounter adds up every "name=N" in books.
func sumCounter(books, name string) (sum int) {
	for _, f := range strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(books)) {
		var n int
		if _, err := fmt.Sscanf(f, name+"=%d", &n); err == nil {
			sum += n
		}
	}
	return sum
}
