package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

const (
	lockDepth   = 8  // few tags: submitters wait on slotCond
	lockPerVCPU = 96 // requests per submitter
)

// lockPort is a controller the test scripts: it completes what the guest
// submits in bursts, after delays short enough that interrupts land while
// the handler is still draining the previous burst.
type lockPort struct {
	env   *sim.Env
	rng   *rand.Rand
	qps   []*nvme.QueuePair
	bell  []*sim.Cond
	irq   []func()
	posts []post
}

// post is one completion as the controller posted it.
type post struct {
	t      sim.Time
	qid    uint16
	cid    uint16
	status nvme.Status
}

func (lp *lockPort) Namespace() nvme.NamespaceInfo {
	return nvme.NamespaceInfo{Size: 1 << 20, Capacity: 1 << 20, LBAShift: 9}
}

func (lp *lockPort) CreateQP(depth uint32) *nvme.QueuePair {
	qp := nvme.NewQueuePair(uint16(len(lp.qps)+1), depth)
	lp.qps = append(lp.qps, qp)
	lp.bell = append(lp.bell, sim.NewCond(lp.env))
	lp.irq = append(lp.irq, nil)
	return qp
}

func (lp *lockPort) Ring(qid uint16)              { lp.bell[qid-1].Signal(nil) }
func (lp *lockPort) SetIRQ(qid uint16, fn func()) { lp.irq[qid-1] = fn }

// serve is the controller side of one queue pair.
func (lp *lockPort) serve(p *sim.Proc, qi int) {
	qp, rng := lp.qps[qi], lp.rng
	var cmd nvme.Command
	var pending []uint16
	for {
		for qp.SQ.Pop(&cmd) {
			pending = append(pending, cmd.CID())
		}
		if len(pending) == 0 {
			lp.bell[qi].Wait()
			continue
		}
		// Mostly sub-microsecond gaps (the handler's per-CQE cost is
		// 700 ns, so the next interrupt lands mid-drain and is dropped),
		// sometimes long enough for the handler to go back to waiting.
		gap := sim.Duration(rng.Intn(1200))
		if rng.Intn(4) == 0 {
			gap = sim.Duration(rng.Intn(30)) * sim.Microsecond
		}
		p.Sleep(gap)
		burst := 1 + rng.Intn(len(pending))
		for ; burst > 0 && !qp.CQ.Full(); burst-- {
			k := rng.Intn(len(pending))
			cid := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			status := nvme.SCSuccess
			if rng.Intn(8) == 0 {
				status = nvme.SCInternal
			}
			qp.CQ.Post(cid, qp.SQ.ID, qp.SQ.Head(), status, 0)
			lp.posts = append(lp.posts, post{p.Now(), qp.SQ.ID, cid, status})
		}
		lp.irq[qi]()
	}
}

// done is one request as the guest saw it complete.
type done struct {
	t      sim.Time
	id     int
	status nvme.Status
}

// irqLockResult is everything a run of one world leaves behind.
type irqLockResult struct {
	posts      []post
	log        []done
	cpu        []map[string]sim.Duration // per tag, at every RunUntil limit
	end        sim.Time
	dispatched uint64
	switches   uint64
	nextRand   int64
}

// lockForms picks, for one run of the world, which of the driver's two
// converted parts runs as the process it was: the completion handler, the
// submission path.
type lockForms struct{ procIRQ, procSubmit bool }

// runIRQLockWorld drives one randomized world. Per vCPU a submitter keeps the
// queue pair busy and burns CPU on the vCPU's core under a second tag, so the
// handler queues for the core behind it and it behind the handler. The
// submitter is a process calling the blocking reference submission when
// forms.procSubmit is set, and otherwise the same loop as continuations on
// SubmitFunc; forms.procIRQ swaps in the process-based completion handler.
// Everything random comes from seed, drawn in an order that depends only on
// how the world behaves (think times are drawn from Env.Rand in completion
// context), so two worlds that behave alike see one script.
func runIRQLockWorld(t *testing.T, seed int64, forms lockForms) irqLockResult {
	env := sim.New(seed)
	defer env.Close()
	nq := 1 + int(seed%4)
	cpu := sim.NewCPU(env, nq)
	v := New(env, 0, cpu, 0, nq, 16<<20, DefaultVirtCosts())
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	port := &lockPort{env: env, rng: rng}
	raiseAll := func() {
		for _, fn := range port.irq {
			fn()
		}
	}
	// An interrupt before the handlers' first event: nobody is waiting yet.
	env.After(0, raiseAll)
	var disk *NVMeDisk
	if forms.procIRQ {
		disk = newRefNVMeDisk(v, port, lockDepth, DefaultDriverCosts())
	} else {
		disk = NewNVMeDisk(v, port, lockDepth, DefaultDriverCosts())
	}
	// And one right after it, with nothing to complete: entry cost only.
	env.After(0, raiseAll)

	var res irqLockResult
	running := nq
	for i := 0; i < nq; i++ {
		i := i
		env.Go(fmt.Sprintf("serve%d", i), func(p *sim.Proc) { port.serve(p, i) })
		other := cpu.ThreadOn(i, "other")
		_, pages, err := v.Mem.AllocBuffer(4096)
		if err != nil {
			t.Fatal(err)
		}
		think := sim.Duration(0)
		inflight, idle := 0, sim.NewCond(env)
		n := 0
		newReq := func() *Req {
			r := &Req{Op: Op(rng.Intn(4)), LBA: uint64(rng.Intn(1 << 16)), Blocks: 8, BufPages: pages}
			id := i*lockPerVCPU + n
			r.OnDone = func(r *Req) {
				res.log = append(res.log, done{env.Now(), id, r.Status})
				think = sim.Duration(env.Rand().Intn(3000))
				inflight--
				idle.Signal(nil)
			}
			inflight++
			return r
		}
		if forms.procSubmit {
			env.Go(fmt.Sprintf("submit%d", i), func(p *sim.Proc) {
				for ; n < lockPerVCPU; n++ {
					other.Exec(p, think)
					disk.refSubmit(p, v.VCPU(i), newReq())
					if rng.Intn(6) == 0 {
						for inflight > 0 {
							idle.Wait() // let the handler go back to waiting
						}
					}
				}
				for inflight > 0 {
					idle.Wait()
				}
				running--
			})
			continue
		}
		// The loop above as continuations.
		var next, submit, submitted, drain, afterDrain func()
		drain = func() {
			if inflight > 0 {
				idle.WaitFunc(drain)
				return
			}
			afterDrain()
		}
		next = func() {
			if n == lockPerVCPU {
				afterDrain = func() { running-- }
				drain()
				return
			}
			other.ExecFunc(think, submit)
		}
		submit = func() { disk.SubmitFunc(v.VCPU(i), newReq(), submitted) }
		submitted = func() {
			n++
			if rng.Intn(6) == 0 {
				afterDrain = next
				drain()
				return
			}
			next()
		}
		env.After(0, next)
	}

	snap := cpu.Snapshot()
	for limit := sim.Time(0); running > 0; {
		limit += sim.Time(1 + rng.Intn(40000))
		env.RunUntil(limit)
		res.cpu = append(res.cpu, cpu.Since(snap).ByTag)
		if limit > sim.Time(sim.Second) {
			t.Fatalf("seed %d %+v: %d submitters still running at %v", seed, forms, running, limit)
		}
	}
	res.posts = port.posts
	res.end = env.Now()
	res.dispatched = env.Dispatched()
	res.switches = env.Switches()
	res.nextRand = env.Rand().Int63()
	return res
}

// lockstep runs every seed's world in the forms of got and of want and
// requires that nothing but the number of run-token hand-offs can tell them
// apart, and that got hands the token over strictly less often.
func lockstep(t *testing.T, got, want lockForms) {
	t.Helper()
	for seed := int64(1); seed <= 12; seed++ {
		g, w := runIRQLockWorld(t, seed, got), runIRQLockWorld(t, seed, want)
		if t.Failed() {
			return
		}
		if len(w.log) != (1+int(seed%4))*lockPerVCPU || len(w.cpu) < 10 {
			t.Fatalf("seed %d: reference completed %d requests over %d limits", seed, len(w.log), len(w.cpu))
		}
		if !reflect.DeepEqual(g.posts, w.posts) {
			t.Fatalf("seed %d: controller post logs differ (%d vs %d entries)", seed, len(g.posts), len(w.posts))
		}
		if len(g.log) != len(w.log) {
			t.Fatalf("seed %d: %d completions on the callback tier, %d with the process", seed, len(g.log), len(w.log))
		}
		for i := range w.log {
			if g.log[i] != w.log[i] {
				t.Fatalf("seed %d: completion %d: callback %+v, reference %+v", seed, i, g.log[i], w.log[i])
			}
		}
		if !reflect.DeepEqual(g.cpu, w.cpu) {
			t.Fatalf("seed %d: per-tag CPU at the RunUntil limits differs", seed)
		}
		if g.end != w.end || g.dispatched != w.dispatched || g.nextRand != w.nextRand {
			t.Fatalf("seed %d: end %v/%v, dispatched %d/%d, next rand %d/%d", seed,
				g.end, w.end, g.dispatched, w.dispatched, g.nextRand, w.nextRand)
		}
		if g.switches >= w.switches {
			t.Fatalf("seed %d: %d switches on the callback tier, %d with the process", seed, g.switches, w.switches)
		}
	}
}

// TestIRQLockstepWithProcessReference runs the guest driver's completion
// handler as the continuation it is and as the process it was over the same
// randomized worlds — 1 to 4 queue pairs, a submitter contending for each
// vCPU's core, completion bursts, interrupts landing mid-drain and before
// the handler's first event — and requires that nothing but the number of
// run-token hand-offs can tell them apart.
func TestIRQLockstepWithProcessReference(t *testing.T) {
	lockstep(t, lockForms{}, lockForms{procIRQ: true})
}

// TestSubmitLockstepWithProcessReference does the same for the submission
// path: SubmitFunc driven by a continuation submitter against the blocking
// reference submission driven by a process, over the same worlds, where only
// 8 tags per queue pair keep submitters waiting on the slot condition.
func TestSubmitLockstepWithProcessReference(t *testing.T) {
	lockstep(t, lockForms{}, lockForms{procSubmit: true})
}

// TestReqResetClearsCompletion: a request an issuer keeps per queue slot
// completes once per submission, with the second completion's own status
// and times and its OnDone run again.
func TestReqResetClearsCompletion(t *testing.T) {
	env := sim.New(1)
	calls := 0
	r := &Req{Op: OpRead, LBA: 7, Blocks: 8, Buf: 4096, OnDone: func(*Req) { calls++ }}
	r.Submitted = env.Now()
	r.Complete(env, nvme.SCInternal)
	env.RunUntil(sim.Time(5 * sim.Microsecond))
	r.Reset()
	if r.Done() || r.Status != nvme.SCSuccess || r.Completed != 0 || r.Submitted != 0 {
		t.Fatalf("after Reset: %+v", r)
	}
	if r.Op != OpRead || r.LBA != 7 || r.Blocks != 8 || r.Buf != 4096 || r.OnDone == nil {
		t.Fatalf("Reset touched the operation: %+v", r)
	}
	r.Submitted = env.Now()
	r.Complete(env, nvme.SCSuccess)
	if !r.Done() || !r.Status.OK() || r.Completed != sim.Time(5*sim.Microsecond) || r.Latency() != 0 || calls != 2 {
		t.Fatalf("second completion: %+v, %d OnDone calls", r, calls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("completing twice without Reset must still panic")
		}
	}()
	r.Complete(env, nvme.SCSuccess)
}
