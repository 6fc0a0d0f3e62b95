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

// runIRQLockWorld drives one randomized world against the callback handler
// or the process reference. Per vCPU a submitter process keeps the queue
// pair busy and burns CPU on the vCPU's core under a second tag, so the
// handler queues for the core behind it and it behind the handler.
// Everything random comes from seed, drawn in an order that depends only
// on how the world behaves (think times are drawn from Env.Rand in
// completion context), so two handlers that behave alike see one script.
func runIRQLockWorld(t *testing.T, seed int64, reference bool) irqLockResult {
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
	if reference {
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
		env.Go(fmt.Sprintf("submit%d", i), func(p *sim.Proc) {
			_, pages, err := v.Mem.AllocBuffer(4096)
			if err != nil {
				t.Error(err)
				return
			}
			think := sim.Duration(0)
			inflight, idle := 0, sim.NewCond(env)
			for n := 0; n < lockPerVCPU; n++ {
				other.Exec(p, think)
				r := &Req{Op: Op(rng.Intn(4)), LBA: uint64(rng.Intn(1 << 16)), Blocks: 8, BufPages: pages}
				id := i*lockPerVCPU + n
				r.OnDone = func(r *Req) {
					res.log = append(res.log, done{env.Now(), id, r.Status})
					think = sim.Duration(env.Rand().Intn(3000))
					inflight--
					idle.Signal(nil)
				}
				inflight++
				disk.Submit(p, v.VCPU(i), r)
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
	}

	snap := cpu.Snapshot()
	for limit := sim.Time(0); running > 0; {
		limit += sim.Time(1 + rng.Intn(40000))
		env.RunUntil(limit)
		res.cpu = append(res.cpu, cpu.Since(snap).ByTag)
		if limit > sim.Time(sim.Second) {
			t.Fatalf("seed %d reference=%v: %d submitters still running at %v", seed, reference, running, limit)
		}
	}
	res.posts = port.posts
	res.end = env.Now()
	res.dispatched = env.Dispatched()
	res.switches = env.Switches()
	res.nextRand = env.Rand().Int63()
	return res
}

// TestIRQLockstepWithProcessReference runs the guest driver's completion
// handler as the continuation it is and as the process it was over the same
// randomized worlds — 1 to 4 queue pairs, a submitter contending for each
// vCPU's core, completion bursts, interrupts landing mid-drain and before
// the handler's first event — and requires that nothing but the number of
// run-token hand-offs can tell them apart.
func TestIRQLockstepWithProcessReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		got, want := runIRQLockWorld(t, seed, false), runIRQLockWorld(t, seed, true)
		if t.Failed() {
			return
		}
		if len(want.log) != (1+int(seed%4))*lockPerVCPU || len(want.cpu) < 10 {
			t.Fatalf("seed %d: reference completed %d requests over %d limits", seed, len(want.log), len(want.cpu))
		}
		if !reflect.DeepEqual(got.posts, want.posts) {
			t.Fatalf("seed %d: controller post logs differ (%d vs %d entries)", seed, len(got.posts), len(want.posts))
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d completions on the callback tier, %d with the process", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: completion %d: callback %+v, reference %+v", seed, i, got.log[i], want.log[i])
			}
		}
		if !reflect.DeepEqual(got.cpu, want.cpu) {
			t.Fatalf("seed %d: per-tag CPU at the RunUntil limits differs", seed)
		}
		if got.end != want.end || got.dispatched != want.dispatched || got.nextRand != want.nextRand {
			t.Fatalf("seed %d: end %v/%v, dispatched %d/%d, next rand %d/%d", seed,
				got.end, want.end, got.dispatched, want.dispatched, got.nextRand, want.nextRand)
		}
		if got.switches >= want.switches {
			t.Fatalf("seed %d: %d switches on the callback tier, %d with the process", seed, got.switches, want.switches)
		}
	}
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
