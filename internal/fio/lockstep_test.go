package fio

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// refRun is the job as the process it was before it became a state machine,
// kept as the oracle for TestJobLockstepWithProcessReference. submit is the
// disk's blocking submission, which returned once the disk had taken r.
func (j *job) refRun(p *sim.Proc, submit func(p *sim.Proc, vcpu *sim.Thread, r *vm.Req)) {
	bs := j.t.Disk.BlockSize()
	blocks := j.cfg.BlockSize / bs
	if blocks == 0 {
		blocks = 1
	}
	var interval sim.Duration
	if j.cfg.RateIOPS > 0 {
		interval = sim.Duration(int64(sim.Second) / int64(j.cfg.RateIOPS))
	}
	nextAt := p.Now()
	slots := make([]int, 0, j.cfg.QD)
	reqs := make([]vm.Req, j.cfg.QD)
	for s := range reqs {
		slot := s
		reqs[s] = vm.Req{Blocks: blocks, Buf: j.bufs[s], BufPages: j.pages[s]}
		reqs[s].OnDone = func(done *vm.Req) {
			slots = append(slots, slot)
			if done.Completed > j.measFrom && done.Completed <= j.measTo {
				if done.Status.OK() {
					j.ops.Inc()
					j.bytes.Add(uint64(j.cfg.BlockSize))
					j.lat.Record(int64(done.Latency()))
				} else {
					j.errors.Inc()
				}
			}
			j.comp.Signal(nil)
		}
		slots = append(slots, s)
	}

	for !j.stop {
		for len(slots) > 0 && !j.stop {
			if interval > 0 && p.Now() < nextAt {
				break
			}
			slot := slots[len(slots)-1]
			slots = slots[:len(slots)-1]
			nextAt = nextAt.Add(interval)
			if interval > 0 && nextAt < p.Now() {
				nextAt = p.Now()
			}
			r := &reqs[slot]
			r.Reset()
			r.Op = j.nextOp()
			r.LBA = j.nextLBA(blocks)
			submit(p, j.t.VCPU, r)
		}
		if interval > 0 && len(slots) > 0 {
			wait := nextAt.Sub(p.Now())
			if wait > 0 {
				j.comp.WaitTimeout(wait)
			}
		} else {
			j.comp.Wait()
		}
	}
}

// scriptDisk is a disk in the shape of the guest drivers, with the blocking
// submission their process form had beside SubmitFunc, so that the job is the
// only thing that differs between the two runs of a lockstep world. (The
// drivers' own SubmitFunc is held to their blocking form by vm's and virtio's
// lockstep tests.) A submission charges its cost to the vCPU, waits for a
// free tag, and, shaped like virtio, also for a free descriptor chain —
// fewer than tags — and traps out for the kick. Completions come after a
// random service time, some with an error.
type scriptDisk struct {
	env          *sim.Env
	rng          *rand.Rand
	virtio       bool
	tags, chains int
	slotCond     *sim.Cond
	log          *[]string
}

const (
	scriptSubmit = 800 * sim.Nanosecond
	scriptKick   = 2 * sim.Microsecond
)

func (d *scriptDisk) BlockSize() uint32 { return 512 }
func (d *scriptDisk) Blocks() uint64    { return 1 << 24 }

func (d *scriptDisk) full() bool { return d.tags == 0 || (d.virtio && d.chains == 0) }

func (d *scriptDisk) SubmitFunc(vcpu *sim.Thread, r *vm.Req, then func()) {
	r.Submitted = d.env.Now()
	var issue func()
	issue = func() {
		if d.full() {
			d.slotCond.WaitFunc(issue)
			return
		}
		d.issue(r)
		if d.virtio {
			vcpu.ExecFunc(scriptKick, then)
			return
		}
		then()
	}
	vcpu.ExecFunc(scriptSubmit, issue)
}

func (d *scriptDisk) submit(p *sim.Proc, vcpu *sim.Thread, r *vm.Req) {
	r.Submitted = p.Now()
	vcpu.Exec(p, scriptSubmit)
	for d.full() {
		d.slotCond.Wait()
	}
	d.issue(r)
	if d.virtio {
		vcpu.Exec(p, scriptKick)
	}
}

func (d *scriptDisk) issue(r *vm.Req) {
	d.tags--
	if d.virtio {
		d.chains--
	}
	*d.log = append(*d.log, fmt.Sprintf("%d issue %v %d", d.env.Now(), r.Op, r.LBA))
	st := nvme.SCSuccess
	if d.rng.Intn(12) == 0 {
		st = nvme.SCInternal
	}
	d.env.After(sim.Duration(1+d.rng.Intn(60))*sim.Microsecond, func() {
		d.tags++
		if d.virtio {
			d.chains++
		}
		d.slotCond.Signal(nil)
		r.Complete(d.env, st)
	})
}

// jobLockResult is everything a run of one world leaves behind.
type jobLockResult struct {
	log        []string
	jobs       []string                  // each job's books after the stop and after the tail
	cpu        []map[string]sim.Duration // per tag, at every RunUntil limit
	end        sim.Time
	dispatched uint64
	switches   uint64
	nextRand   int64
}

// runJobWorld runs four jobs — two closed-loop, two rate-limited, on an
// NVMe-shaped and a virtio-shaped disk, two per vCPU beside a thread burning
// CPU on the same core — as state machines, or as processes when reference
// is set, under random RunUntil limits. The jobs are stopped mid-flight, as
// RunMixed stops them at the end of its window, and the world runs on: a
// stopped job finishes what it was doing.
func runJobWorld(t *testing.T, seed int64, reference bool) jobLockResult {
	env := sim.New(seed)
	defer env.Close()
	rng := rand.New(rand.NewSource(seed ^ 0xf10))
	cpu := sim.NewCPU(env, 2)
	v := vm.New(env, 0, cpu, 0, 2, 64<<20, vm.DefaultVirtCosts())
	var res jobLockResult
	disks := []*scriptDisk{
		{env: env, rng: rng, tags: 6, slotCond: sim.NewCond(env), log: &res.log},
		{env: env, rng: rng, virtio: true, tags: 6, chains: 4, slotCond: sim.NewCond(env), log: &res.log},
	}
	rate := 20000 + int(seed%4)*20000
	var groups []Group
	for i, d := range disks {
		closed := Config{Mode: RandRW, BlockSize: 4096, QD: 8, WritePct: 30}
		limited := Config{Mode: SeqRead, BlockSize: 512, QD: 4, RateIOPS: rate}
		for _, cfg := range []Config{closed, limited} {
			groups = append(groups, Group{Cfg: cfg, Targets: []Target{{Disk: d, VM: v, VCPU: v.VCPU(i)}}})
		}
	}
	horizon := sim.Time(3 * sim.Millisecond)
	jobs := newJobs(env, groups, sim.Time(200*sim.Microsecond), horizon)
	for gi, js := range jobs {
		d := disks[gi/2]
		for _, j := range js {
			if reference {
				j := j
				env.Go("fio-job", func(p *sim.Proc) { j.refRun(p, d.submit) })
			} else {
				env.After(0, j.start)
			}
		}
	}
	for i := 0; i < 2; i++ {
		burn := cpu.ThreadOn(i, "burn")
		env.Go("burn", func(p *sim.Proc) {
			for {
				p.Sleep(sim.Duration(1+rng.Intn(40)) * sim.Microsecond)
				burn.Exec(p, sim.Duration(1+rng.Intn(5000)))
			}
		})
	}

	books := func() {
		for _, js := range jobs {
			for _, j := range js {
				res.jobs = append(res.jobs, fmt.Sprintf("ops=%d bytes=%d errors=%d p50=%d p99=%d n=%d",
					j.ops.Value(), j.bytes.Value(), j.errors.Value(), j.lat.Median(), j.lat.Quantile(0.99), j.lat.Count()))
			}
		}
	}
	snap := cpu.Snapshot()
	for limit, stopped := sim.Time(0), false; limit < horizon+sim.Time(sim.Millisecond); {
		limit += sim.Time(1 + rng.Intn(50000))
		env.RunUntil(limit)
		res.cpu = append(res.cpu, cpu.Since(snap).ByTag)
		if !stopped && limit >= horizon {
			stopped = true
			books()
			for _, js := range jobs {
				for _, j := range js {
					j.stop = true
				}
			}
		}
	}
	books()
	res.end = env.Now()
	res.dispatched = env.Dispatched()
	res.switches = env.Switches()
	res.nextRand = env.Rand().Int63()
	return res
}

// TestJobLockstepWithProcessReference runs fio's job as the state machine it
// is and as the process it was over the same randomized worlds and requires
// that nothing but the number of run-token hand-offs can tell them apart: the
// disks' issue log, every job's books when stopped and after the tail, per-tag
// CPU at every RunUntil limit, end time, events dispatched and the next
// random draw.
func TestJobLockstepWithProcessReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		got, want := runJobWorld(t, seed, false), runJobWorld(t, seed, true)
		if len(want.log) < 500 {
			t.Fatalf("seed %d: only %d submissions", seed, len(want.log))
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: issue logs diverge at entry %d of %d/%d", seed, i, len(got.log), len(want.log))
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d submissions by the state machine, %d by the process", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Fatalf("seed %d: job books differ:\n state machine: %v\n process:       %v", seed, got.jobs, want.jobs)
		}
		if !reflect.DeepEqual(got.cpu, want.cpu) {
			t.Fatalf("seed %d: per-tag CPU at the RunUntil limits differs", seed)
		}
		if got.end != want.end || got.dispatched != want.dispatched || got.nextRand != want.nextRand {
			t.Fatalf("seed %d: end %v/%v, dispatched %d/%d, next rand %d/%d", seed,
				got.end, want.end, got.dispatched, want.dispatched, got.nextRand, want.nextRand)
		}
		if got.switches >= want.switches {
			t.Fatalf("seed %d: %d switches with the state machine, %d with the process", seed, got.switches, want.switches)
		}
	}
}
