package virtio

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// refSubmit is the driver's submission as the blocking call it was before
// SubmitFunc, kept as the oracle for TestSubmitLockstepWithProcessReference:
// the calling process charges the submission cost, parks on the slot
// condition until a slot is free and again until the ring has descriptors
// for the chain, publishes it and traps out for the kick.
func (d *driverBase) refSubmit(p *sim.Proc, vcpu *sim.Thread, r *vm.Req) {
	st := d.qs[vcpu]
	if st == nil {
		st = d.order[0]
	}
	r.Submitted = p.Now()
	vcpu.Exec(p, d.costs.Submit)
	for len(st.free) == 0 {
		st.slotCnd.Wait()
	}
	si := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	s := &st.slots[si]
	s.req = r
	bufs := d.encode(s, r, nil)
	head, ok := st.q.Ring.AddChain(bufs)
	for !ok {
		st.slotCnd.Wait()
		head, ok = st.q.Ring.AddChain(bufs)
	}
	st.byHead[head] = si
	if !st.q.Ring.SuppressKick {
		if trap, notify := d.tr.Kick(st.q); notify != nil {
			vcpu.Exec(p, trap)
			notify()
		}
	}
}

// lockBackend is a scripted transport and device: a kick traps for a random
// time unless the backend is already busy, and wakes the queue's server; the
// server takes the available chains and completes them in random bursts after
// random delays. A polling queue suppresses kicks and its server looks for
// work on a timer instead.
type lockBackend struct {
	env  *sim.Env
	rng  *rand.Rand
	qs   []*Queue
	bell map[*Queue]*sim.Cond
	irq  map[*Queue]func()
	busy map[*Queue]bool
	log  []string
}

func (b *lockBackend) Kick(q *Queue) (sim.Duration, func()) {
	if b.busy[q] {
		return 0, nil
	}
	return sim.Duration(b.rng.Intn(4000)), func() { b.bell[q].Signal(nil) }
}

func (b *lockBackend) SetIRQ(q *Queue, fn func()) {
	b.qs = append(b.qs, q)
	b.bell[q] = sim.NewCond(b.env)
	b.irq[q] = fn
}

func (b *lockBackend) serve(p *sim.Proc, q *Queue) {
	var pending []DeviceReq
	for {
		for {
			head, ok := q.Ring.PopAvail()
			if !ok {
				break
			}
			r, err := ParseChain(q, head)
			if err != nil {
				panic(err)
			}
			typ, sector := r.BlkHeader(q)
			b.log = append(b.log, fmt.Sprintf("%d q%d type %d sector %d len %d", p.Now(), q.Index, typ, sector, r.DataLen()))
			pending = append(pending, r)
		}
		if len(pending) == 0 {
			b.busy[q] = false
			if q.Ring.SuppressKick {
				p.Sleep(sim.Duration(1+b.rng.Intn(5)) * sim.Microsecond)
			} else {
				b.bell[q].Wait()
			}
			b.busy[q] = true
			continue
		}
		p.Sleep(sim.Duration(b.rng.Intn(25)) * sim.Microsecond)
		for burst := 1 + b.rng.Intn(len(pending)); burst > 0; burst-- {
			k := b.rng.Intn(len(pending))
			status := byte(0)
			if b.rng.Intn(8) == 0 {
				status = 1
			}
			pending[k].Complete(q, status)
			pending = append(pending[:k], pending[k+1:]...)
		}
		b.irq[q]()
	}
}

// submitLockResult is everything a run of one world leaves behind.
type submitLockResult struct {
	log, served []string
	cpu         []map[string]sim.Duration
	end         sim.Time
	dispatched  uint64
	switches    uint64
	nextRand    int64
}

// runSubmitLockWorld drives one randomized world: 1 to 3 virtqueues of 16
// descriptors and 8 slots, so submitters wait for slots and, with 4 and 8 KiB
// transfers, for descriptors; a submitter per vCPU keeps its queue busy and
// burns CPU on the vCPU's core; on alternate seeds the first queue is polled
// with kicks suppressed. The submitter is a process calling the blocking
// reference when reference is set, and otherwise the same loop as
// continuations on SubmitFunc.
func runSubmitLockWorld(t *testing.T, seed int64, reference bool) submitLockResult {
	const perVCPU = 80
	env := sim.New(seed)
	defer env.Close()
	nq := 1 + int(seed%3)
	cpu := sim.NewCPU(env, nq)
	v := vm.New(env, 0, cpu, 0, nq, 16<<20, vm.DefaultVirtCosts())
	rng := rand.New(rand.NewSource(seed ^ 0xb1c))
	be := &lockBackend{env: env, rng: rng, bell: map[*Queue]*sim.Cond{}, irq: map[*Queue]func(){}, busy: map[*Queue]bool{}}
	disk := NewBlkDisk(v, be, nvme.NamespaceInfo{Size: 1 << 20, Capacity: 1 << 20, LBAShift: 9}, 16, vm.DefaultDriverCosts())
	if seed%2 == 0 {
		be.qs[0].Ring.SuppressKick = true
	}
	var res submitLockResult
	running := nq
	for i := 0; i < nq; i++ {
		i, q := i, be.qs[i]
		env.Go("serve", func(p *sim.Proc) { be.serve(p, q) })
		vcpu, other := v.VCPU(i), cpu.ThreadOn(i, "other")
		_, pages, err := v.Mem.AllocBuffer(8192)
		if err != nil {
			t.Fatal(err)
		}
		think, inflight, n := sim.Duration(0), 0, 0
		idle := sim.NewCond(env)
		newReq := func() *vm.Req {
			r := &vm.Req{Op: vm.Op(rng.Intn(4)), LBA: uint64(rng.Intn(1 << 12)), Blocks: uint32(8 << rng.Intn(2)), BufPages: pages}
			id := i*perVCPU + n
			r.OnDone = func(r *vm.Req) {
				res.log = append(res.log, fmt.Sprintf("%d %d %v", env.Now(), id, r.Status))
				think = sim.Duration(env.Rand().Intn(3000))
				inflight--
				idle.Signal(nil)
			}
			inflight++
			return r
		}
		if reference {
			env.Go("submit", func(p *sim.Proc) {
				for ; n < perVCPU; n++ {
					other.Exec(p, think)
					disk.refSubmit(p, vcpu, newReq())
					if rng.Intn(6) == 0 {
						for inflight > 0 {
							idle.Wait()
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
		var next, submit, submitted, drain, afterDrain func()
		drain = func() {
			if inflight > 0 {
				idle.WaitFunc(drain)
				return
			}
			afterDrain()
		}
		next = func() {
			if n == perVCPU {
				afterDrain = func() { running-- }
				drain()
				return
			}
			other.ExecFunc(think, submit)
		}
		submit = func() { disk.SubmitFunc(vcpu, newReq(), submitted) }
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
			t.Fatalf("seed %d reference=%v: %d submitters still running at %v", seed, reference, running, limit)
		}
	}
	res.served = be.log
	res.end = env.Now()
	res.dispatched = env.Dispatched()
	res.switches = env.Switches()
	res.nextRand = env.Rand().Int63()
	return res
}

// TestSubmitLockstepWithProcessReference runs the virtio driver's submission
// as the continuations it is and as the blocking call it was over the same
// randomized worlds and requires that nothing but the number of run-token
// hand-offs can tell them apart: what the backend took and when, the guest's
// completions, per-tag CPU at every RunUntil limit, end time, events
// dispatched and the next random draw.
func TestSubmitLockstepWithProcessReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		got, want := runSubmitLockWorld(t, seed, false), runSubmitLockWorld(t, seed, true)
		if t.Failed() {
			return
		}
		if len(want.log) != (1+int(seed%3))*80 || len(want.cpu) < 10 {
			t.Fatalf("seed %d: reference completed %d requests over %d limits", seed, len(want.log), len(want.cpu))
		}
		if !reflect.DeepEqual(got.served, want.served) {
			t.Fatalf("seed %d: backend logs differ (%d vs %d entries)", seed, len(got.served), len(want.served))
		}
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d: completion logs differ (%d vs %d entries)", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.cpu, want.cpu) {
			t.Fatalf("seed %d: per-tag CPU at the RunUntil limits differs", seed)
		}
		if got.end != want.end || got.dispatched != want.dispatched || got.nextRand != want.nextRand {
			t.Fatalf("seed %d: end %v/%v, dispatched %d/%d, next rand %d/%d", seed,
				got.end, want.end, got.dispatched, want.dispatched, got.nextRand, want.nextRand)
		}
		if got.switches >= want.switches {
			t.Fatalf("seed %d: %d switches with continuations, %d with processes", seed, got.switches, want.switches)
		}
	}
}
