package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmetro/internal/bufpool"
	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/vm"
)

// TestCIDConflict pushes two SQEs with one CID behind the guest driver's
// back. The second arrives while the first is in flight: it completes at
// once with SCIDConflict, is counted as a guest error and reaches no device,
// and the first completes normally. Once the first's completion is queued,
// the CID is free again.
func TestCIDConflict(t *testing.T) {
	r := newRig(1)
	v, vc, _ := r.addVM(1, device.WholeNamespace(r.dev, 1))
	qp := vc.CreateQP(8)
	_, pages, err := v.Mem.AllocBuffer(512)
	if err != nil {
		t.Fatal(err)
	}
	push := func(lba uint64) {
		cmd := nvme.NewRW(nvme.OpRead, 7, 1, lba, 1, pages[0], 0)
		if !qp.SQ.Push(&cmd) {
			t.Fatal("VSQ full")
		}
		vc.Ring(qp.SQ.ID)
	}
	drain := func() (got []string) {
		r.env.RunUntil(r.env.Now().Add(sim.Millisecond))
		var e nvme.Completion
		for qp.CQ.Pop(&e) {
			got = append(got, e.Status().String())
			if e.CID() != 7 {
				t.Errorf("completion for CID %d, want 7", e.CID())
			}
		}
		return got
	}
	push(0)
	push(8)
	got := drain()
	if len(got) != 2 || got[0] != nvme.SCIDConflict.String() || got[1] != nvme.SCSuccess.String() {
		t.Fatalf("completions %v; want the conflict, then the first command's success", got)
	}
	if r.router.GuestErrors != 1 || r.dev.Reads != 1 || vc.Outstanding() != 0 {
		t.Fatalf("guest errors %d, device reads %d, outstanding %d; want 1, 1, 0",
			r.router.GuestErrors, r.dev.Reads, vc.Outstanding())
	}
	push(16)
	if got := drain(); len(got) != 1 || got[0] != nvme.SCSuccess.String() {
		t.Fatalf("CID 7 reused after its completion: %v", got)
	}
	if err := core.CheckRecords(vc); err != nil {
		t.Fatal(err)
	}
}

// routeByLBA is a native classifier that exercises every way a request's
// references come and go, by guest LBA: a synchronous multicast to the fast
// and notify paths, a fast-path hop re-routed to the kernel path at its
// completion hook, a fast-path hop with a fire-and-forget notify leg that
// outlives the guest's completion, and a plain fast-path hop.
func routeByLBA(ctx []byte) uint64 {
	var cmd nvme.Command
	copy(cmd[:], ctx[core.CtxOffCmd:])
	switch {
	case ctx[core.CtxOffHook] == core.HookHCQ:
		return core.ActSendKQ | core.ActWillCompleteKQ
	case cmd.SLBA()%4 == 0:
		return core.ActSendHQ | core.ActWillCompleteHQ | core.ActSendNQ | core.ActWillCompleteNQ
	case cmd.SLBA()%4 == 1:
		return core.ActSendHQ | core.ActHookHCQ
	case cmd.SLBA()%4 == 2:
		return core.ActSendHQ | core.ActWillCompleteHQ | core.ActSendNQ
	}
	return core.ActSendHQ | core.ActWillCompleteHQ
}

// TestRecordsReleasedOnce runs a QD16 guest through routeByLBA on a device
// that drops some completions (the hop expires and its tag is quarantined
// until reclaimed) and holds others past the hop deadline (the hop expires
// and the late completion frees the tag). At every guest completion and at
// quiesce the queue's books must balance (see CheckRecords); a record
// released twice panics.
func TestRecordsReleasedOnce(t *testing.T) {
	const qd, total = 16, 800
	r := newRig(1)
	r.router.FastPathDeadline = 300 * sim.Microsecond
	r.router.HTagReclaim = 2 * sim.Millisecond
	r.dev.InjectFaults(fault.NewPlan(3).WithDrops(0.02, 6).WithStuck(0.02, 6, sim.Millisecond).Injector("dev"))
	v, vc, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
	u := attachFakeUIF(r.env, vc)
	u.delay = 20 * sim.Microsecond
	kt := &fakeKernelDev{env: r.env, delay: 15 * sim.Microsecond}
	vc.SetKernelTarget(kt)
	vc.SetNativeClassifier(routeByLBA)

	issued, done := 0, 0
	for k := 0; k < qd; k++ {
		base, pages, err := v.Mem.AllocBuffer(512)
		if err != nil {
			t.Fatal(err)
		}
		req := &vm.Req{Blocks: 1, Buf: base, BufPages: pages}
		submit := func() {
			if issued == total {
				return
			}
			req.Reset()
			req.Op = vm.OpRead
			if issued%3 == 0 {
				req.Op = vm.OpWrite
			}
			req.LBA = uint64(issued * 7919 % 4096)
			issued++
			disk.SubmitFunc(v.VCPU(0), req, func() {})
		}
		req.OnDone = func(*vm.Req) {
			done++
			if err := core.CheckRecords(vc); err != nil {
				t.Errorf("after %d completions: %v", done, err)
				r.env.Stop()
			}
			r.env.After(0, submit)
		}
		r.env.After(0, submit)
	}
	r.env.RunUntil(sim.Time(sim.Second))
	if done != total {
		t.Fatalf("%d of %d commands completed", done, total)
	}
	if err := core.CheckRecords(vc); err != nil {
		t.Fatalf("at quiesce: %v", err)
	}
	rt := r.router
	if vc.Outstanding() != 0 || vc.NotifyInFlight() != 0 {
		t.Fatalf("at quiesce: %d outstanding, %d notify hops", vc.Outstanding(), vc.NotifyInFlight())
	}
	// Every branch the test is for was taken.
	if rt.HQTimeouts == 0 || rt.StaleComps == 0 || rt.HTagsReclaimed == 0 || rt.NotifyPath == 0 || kt.count == 0 {
		t.Fatalf("timeouts %d, late completions %d, reclaims %d, notify hops %d, kernel hops %d: a branch went unexercised",
			rt.HQTimeouts, rt.StaleComps, rt.HTagsReclaimed, rt.NotifyPath, kt.count)
	}
	if n := core.Records(vc); n < qd || n > 4*qd {
		t.Fatalf("%d records made for %d commands in flight", n, qd)
	}
}

// TestPoisonedRecords runs the routed, notify and multicast paths, and a
// fire-and-forget notify leg that outlives the guest's completion behind a
// two-deep NSQ (so it waits in the retry list), with bufpool.Poison set:
// every request record the router releases is overwritten at once, so a hop
// that still used its record afterwards would send an impossible command or
// find no queue. The routed writes must read back, and each notify consumer
// must see exactly the commands the guest sent (a retried leg may be
// overtaken).
func TestPoisonedRecords(t *testing.T) {
	was := bufpool.Poison
	bufpool.Poison = true
	t.Cleanup(func() { bufpool.Poison = was })
	r := newRig(1)
	routed := device.Carve(r.dev, 1, 4)
	v1, _, d1 := r.addVM(1, routed[0])
	v2, vc2, d2 := r.addVM(2, routed[1])
	enc, _ := storfn.EncryptorClassifier(routed[1])
	if err := vc2.LoadClassifier(enc); err != nil {
		t.Fatal(err)
	}
	u2 := attachFakeUIF(r.env, vc2)
	v3, vc3, d3 := r.addVM(3, routed[2])
	if err := vc3.LoadClassifier(replicatorClassifier(routed[2])); err != nil {
		t.Fatal(err)
	}
	u3 := attachFakeUIF(r.env, vc3)
	u3.delay = 30 * sim.Microsecond
	v4, vc4, d4 := r.addVM(4, routed[3])
	vc4.SetNativeClassifier(func(ctx []byte) uint64 {
		binary.LittleEndian.PutUint64(ctx[core.CtxOffCmd+40:], binary.LittleEndian.Uint64(ctx[core.CtxOffCmd+40:])+routed[3].Start)
		return core.ActSendHQ | core.ActWillCompleteHQ | core.ActSendNQ
	})
	u4 := attachFakeUIFDepth(r.env, vc4, 2)
	u4.delay = 2 * sim.Millisecond
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			lba := uint64(i) * 8
			if st := doIO(p, v1, d1, vm.OpWrite, lba, data); !st.OK() {
				t.Fatalf("routed write %d: %v", i, st)
			}
			got := make([]byte, len(data))
			if st := doIO(p, v1, d1, vm.OpRead, lba, got); !st.OK() || !bytes.Equal(got, data) {
				t.Fatalf("routed read %d: %v, data intact %v", i, st, bytes.Equal(got, data))
			}
			if st := doIO(p, v2, d2, vm.OpWrite, lba, data); !st.OK() {
				t.Fatalf("notify write %d: %v", i, st)
			}
			if st := doIO(p, v3, d3, vm.OpWrite, lba, data); !st.OK() {
				t.Fatalf("multicast write %d: %v", i, st)
			}
			if st := doIO(p, v4, d4, vm.OpWrite, lba, data); !st.OK() {
				t.Fatalf("fire-and-forget write %d: %v", i, st)
			}
		}
		p.Sleep(20 * u4.delay) // the fire-and-forget legs drain
	})
	if r.router.Backpressure == 0 {
		t.Fatal("no fire-and-forget leg waited for the NSQ")
	}
	for _, c := range []struct {
		name string
		u    *fakeUIF
		part device.Partition
	}{{"notify", u2, routed[1]}, {"multicast", u3, routed[2]}, {"fire-and-forget", u4, routed[3]}} {
		if len(c.u.seen) != 20 {
			t.Fatalf("%s: the UIF saw %d commands, want 20", c.name, len(c.u.seen))
		}
		seen := map[uint64]bool{}
		for i, cmd := range c.u.seen {
			lba := cmd.SLBA() - c.part.Start
			if cmd.Opcode() != nvme.OpWrite || cmd.Blocks() != 8 || lba%8 != 0 || lba >= 20*8 || seen[lba] {
				t.Fatalf("%s: command %d reached the UIF as opcode %#x, %d blocks at LBA %d",
					c.name, i, cmd.Opcode(), cmd.Blocks(), cmd.SLBA())
			}
			seen[lba] = true
		}
	}
	if r.dev.Writes != 60 {
		t.Fatalf("device took %d writes, want 20 routed, 20 mirrored and 20 beside a fire-and-forget leg", r.dev.Writes)
	}
}
