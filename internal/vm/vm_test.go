package vm

import (
	"bytes"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// rawPort binds the guest driver straight to the simulated device with
// hardware-interrupt forwarding — a minimal passthrough used to test the
// driver in isolation.
type rawPort struct {
	env *sim.Env
	dev *device.Device
	v   *VM
}

func (rp *rawPort) Namespace() nvme.NamespaceInfo { return rp.dev.Namespace(1).Info }
func (rp *rawPort) CreateQP(depth uint32) *nvme.QueuePair {
	return rp.dev.CreateQueuePair(depth, rp.v.Mem)
}
func (rp *rawPort) Ring(qid uint16) { rp.dev.Ring(qid) }
func (rp *rawPort) SetIRQ(qid uint16, fn func()) {
	qp := findQP(rp.dev, qid)
	cost := rp.v.Costs.HWIRQForward
	qp.CQ.OnPost = func() { rp.env.After(cost, fn) }
}

// findQP digs the queue pair back out of the device for test wiring.
var qpRegistry = map[*device.Device]map[uint16]*nvme.QueuePair{}

func findQP(d *device.Device, qid uint16) *nvme.QueuePair { return qpRegistry[d][qid] }

type registeringPort struct{ rawPort }

func (rp *registeringPort) CreateQP(depth uint32) *nvme.QueuePair {
	qp := rp.dev.CreateQueuePair(depth, rp.v.Mem)
	if qpRegistry[rp.dev] == nil {
		qpRegistry[rp.dev] = map[uint16]*nvme.QueuePair{}
	}
	qpRegistry[rp.dev][qp.SQ.ID] = qp
	return qp
}

func newTestVM(t *testing.T, store device.Store) (*sim.Env, *VM, *NVMeDisk) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 8)
	dev := device.New(env, device.Default970EvoPlus(), store)
	v := New(env, 0, cpu, 0, 2, 64<<20, DefaultVirtCosts())
	port := &registeringPort{rawPort{env: env, dev: dev, v: v}}
	disk := NewNVMeDisk(v, port, 64, DefaultDriverCosts())
	return env, v, disk
}

func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	ok := false
	env.Go("test", func(p *sim.Proc) { fn(p); ok = true; env.Stop() })
	env.RunUntil(sim.Time(30 * sim.Second))
	if !ok {
		t.Fatal("test body did not finish in simulated time")
	}
}

func TestNVMeDiskReadWrite(t *testing.T) {
	env, v, disk := newTestVM(t, device.NewMemStore(512))
	run(t, env, func(p *sim.Proc) {
		base, pages, err := v.Mem.AllocBuffer(4096)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x77}, 4096)
		v.Mem.WriteAt(data, base)
		w := &Req{Op: OpWrite, LBA: 64, Blocks: 8, Buf: base, BufPages: pages}
		if st := SubmitAndWait(p, disk, v.VCPU(0), w); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		v.Mem.WriteAt(make([]byte, 4096), base)
		r := &Req{Op: OpRead, LBA: 64, Blocks: 8, Buf: base, BufPages: pages}
		if st := SubmitAndWait(p, disk, v.VCPU(0), r); !st.OK() {
			t.Fatalf("read: %v", st)
		}
		got := make([]byte, 4096)
		v.Mem.ReadAt(got, base)
		if !bytes.Equal(data, got) {
			t.Fatal("round trip mismatch")
		}
		if r.Latency() <= 0 {
			t.Fatal("latency not recorded")
		}
	})
}

func TestNVMeDiskQueueDepthParallelism(t *testing.T) {
	env, v, disk := newTestVM(t, device.NullStore{})
	run(t, env, func(p *sim.Proc) {
		base, pages, _ := v.Mem.AllocBuffer(512)
		// 32 concurrent reads should take far less than 32x QD1 latency.
		start := p.Now()
		reqs := make([]*Req, 32)
		done := sim.NewCond(env)
		remaining := len(reqs)
		for i := range reqs {
			reqs[i] = &Req{Op: OpRead, LBA: uint64(i), Blocks: 1, Buf: base, BufPages: pages,
				OnDone: func(*Req) { remaining--; done.Signal(nil) }}
			disk.SubmitFunc(v.VCPU(0), reqs[i], submitted)
		}
		for remaining > 0 {
			done.Wait()
		}
		elapsed := p.Now().Sub(start)
		if elapsed > sim.Duration(32*80)*sim.Microsecond/4 {
			t.Fatalf("32 parallel reads took %v; device parallelism not exploited", elapsed)
		}
		for _, r := range reqs {
			if !r.Status.OK() {
				t.Fatalf("status %v", r.Status)
			}
		}
	})
}

func TestNVMeDiskSlotExhaustionBlocks(t *testing.T) {
	env, v, disk := newTestVM(t, device.NullStore{})
	run(t, env, func(p *sim.Proc) {
		base, pages, _ := v.Mem.AllocBuffer(512)
		var completed int
		// Submit 3x the queue depth; the submissions past it wait for
		// tags in the driver, and all must eventually complete.
		for i := 0; i < 192; i++ {
			r := &Req{Op: OpRead, LBA: uint64(i), Blocks: 1, Buf: base, BufPages: pages,
				OnDone: func(*Req) { completed++ }}
			disk.SubmitFunc(v.VCPU(0), r, submitted)
		}
		for completed < 192 {
			p.Sleep(100 * sim.Microsecond)
		}
	})
}

func TestNVMeDiskPerVCPUQueues(t *testing.T) {
	env, v, disk := newTestVM(t, device.NullStore{})
	if len(disk.order) != 2 {
		t.Fatalf("expected 2 queue pairs for 2 vCPUs, got %d", len(disk.order))
	}
	run(t, env, func(p *sim.Proc) {
		base, pages, _ := v.Mem.AllocBuffer(512)
		r0 := &Req{Op: OpRead, LBA: 0, Blocks: 1, Buf: base, BufPages: pages}
		r1 := &Req{Op: OpRead, LBA: 1, Blocks: 1, Buf: base, BufPages: pages}
		if st := SubmitAndWait(p, disk, v.VCPU(0), r0); !st.OK() {
			t.Fatal(st)
		}
		if st := SubmitAndWait(p, disk, v.VCPU(1), r1); !st.OK() {
			t.Fatal(st)
		}
	})
	if disk.order[0].qp.SQ.ID == disk.order[1].qp.SQ.ID {
		t.Fatal("vCPUs share a queue pair")
	}
}

func TestFlushAndTrim(t *testing.T) {
	env, v, disk := newTestVM(t, device.NewMemStore(512))
	run(t, env, func(p *sim.Proc) {
		f := &Req{Op: OpFlush}
		if st := SubmitAndWait(p, disk, v.VCPU(0), f); !st.OK() {
			t.Fatalf("flush: %v", st)
		}
		tr := &Req{Op: OpTrim, LBA: 0, Blocks: 8}
		if st := SubmitAndWait(p, disk, v.VCPU(0), tr); !st.OK() {
			t.Fatalf("trim: %v", st)
		}
	})
}

func TestGuestCPUAccounting(t *testing.T) {
	env := sim.New(1)
	cpu := sim.NewCPU(env, 4)
	dev := device.New(env, device.Default970EvoPlus(), device.NullStore{})
	v := New(env, 3, cpu, 0, 1, 16<<20, DefaultVirtCosts())
	port := &registeringPort{rawPort{env: env, dev: dev, v: v}}
	disk := NewNVMeDisk(v, port, 32, DefaultDriverCosts())
	snap := cpu.Snapshot()
	run(t, env, func(p *sim.Proc) {
		base, pages, _ := v.Mem.AllocBuffer(512)
		for i := 0; i < 10; i++ {
			r := &Req{Op: OpRead, LBA: uint64(i), Blocks: 1, Buf: base, BufPages: pages}
			SubmitAndWait(p, disk, v.VCPU(0), r)
		}
	})
	u := cpu.Since(snap)
	if u.ByTag["vm3/guest"] <= 0 {
		t.Fatalf("no guest CPU accounted: %v", u.ByTag)
	}
}
