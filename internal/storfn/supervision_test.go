package storfn_test

import (
	"bytes"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/nvmeof"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
	"nvmetro/internal/supervise"
	"nvmetro/internal/vm"
	"nvmetro/internal/xts"
)

// supTestPolicy is a watchdog fast enough for microsecond-scale tests,
// with a restart backoff long enough to probe degraded-mode behaviour
// before the function comes back.
func supTestPolicy() supervise.Policy {
	pol := supervise.DefaultPolicy()
	pol.HeartbeatInterval = 10 * sim.Microsecond
	pol.StallThreshold = 100 * sim.Microsecond
	pol.ResidencyDeadline = 2 * sim.Millisecond
	pol.RestartBackoff = 2 * sim.Millisecond
	pol.RestartBackoffCap = 2 * sim.Millisecond
	return pol
}

func waitState(p *sim.Proc, sup *supervise.Supervisor, want supervise.State, bound sim.Duration) bool {
	deadline := p.Now().Add(bound)
	for sup.State() != want && p.Now() < deadline {
		p.Sleep(50 * sim.Microsecond)
	}
	return sup.State() == want
}

// Encryption never degrades to plaintext: a write stranded by the UIF
// crash fails with a retryable status and leaves the disk untouched,
// degraded-mode writes fail the same way, and after the supervised restart
// writes land as proper XTS ciphertext again.
func TestSupervisedEncryptorNeverPlaintext(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()
	bdev := blockdev.NewNVMeBlockDev(h.env, part, h.cpu, 11, blockdev.DefaultCosts())
	ring := blockdev.NewURing(h.env, bdev, blockdev.DefaultURingCosts())
	fn := storfn.NewEncryptorSupervision(part, testKey, storfn.DefaultEncryptorCosts())
	sup, err := supervise.Launch(h.env, h.fw, vc, ring, 256, fn, supTestPolicy())
	if err != nil {
		t.Fatal(err)
	}

	plain := bytes.Repeat([]byte{0xd5, 0x11}, 2048) // 8 blocks, never all-zero
	zero := make([]byte, len(plain))
	h.run(t, func(p *sim.Proc) {
		// Strand a write on the wedged UIF: reconciliation must fail it
		// with a retryable status, not complete it around the encryptor.
		sup.Attachment().Wedge(sim.Second)
		if st := doIO(p, v, disk, vm.OpWrite, 100, plain); st.OK() {
			t.Fatal("stranded write completed OK around the dead encryptor")
		} else if st != nvme.SCNSNotReady {
			t.Fatalf("stranded write status = %v, want retryable SCNSNotReady", st)
		}
		raw := make([]byte, len(plain))
		h.store.ReadBlocks(100, raw)
		if bytes.Equal(raw, plain) {
			t.Fatal("stranded write persisted plaintext")
		}
		if !bytes.Equal(raw, zero) {
			t.Fatal("stranded write touched the device")
		}
		// Degraded mode is fail-stop: same retryable error, disk untouched.
		if sup.State() != supervise.StateDegraded {
			t.Fatalf("state = %v after detection, want degraded", sup.State())
		}
		if st := doIO(p, v, disk, vm.OpWrite, 100, plain); st.OK() || st != nvme.SCNSNotReady {
			t.Fatalf("degraded write status = %v, want SCNSNotReady", st)
		}
		h.store.ReadBlocks(100, raw)
		if !bytes.Equal(raw, zero) {
			t.Fatal("degraded write touched the device")
		}
		// After restart+promote the write lands, encrypted.
		if !waitState(p, sup, supervise.StateRouted, 20*sim.Millisecond) {
			t.Fatalf("encryptor never restarted: %s", sup.String())
		}
		if st := doIO(p, v, disk, vm.OpWrite, 100, plain); !st.OK() {
			t.Fatalf("write after restart: %v", st)
		}
		h.store.ReadBlocks(100, raw)
		if bytes.Equal(raw, plain) {
			t.Fatal("plaintext reached the disk after restart")
		}
		want := make([]byte, len(plain))
		xts.Must(testKey).EncryptBlocks(want, plain, 100, 512)
		if !bytes.Equal(raw, want) {
			t.Fatal("restarted encryptor broke the on-disk XTS format")
		}
		got := make([]byte, len(plain))
		if st := doIO(p, v, disk, vm.OpRead, 100, got); !st.OK() || !bytes.Equal(got, plain) {
			t.Fatalf("read-back after restart: %v", st)
		}
	})
	if sup.ReconciledErr == 0 || sup.ReconciledOK != 0 || sup.Requeued != 0 {
		t.Fatalf("encryptor reconcile must fail-stop every stranded command: %s", sup.String())
	}
}

// A cache UIF killed mid-fill loses no read, and cache degradation is
// coherent: writes landing on the fast path while the cache is down can
// never be shadowed by the dead generation's entries after restart.
func TestSupervisedCacheKilledMidFillStaysCoherent(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()
	cp := storfn.DefaultCacheParams()
	bdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(h.dev, 1), h.cpu, 11, blockdev.DefaultCosts())
	ring := blockdev.NewURing(h.env, bdev, blockdev.DefaultURingCosts())
	fn := storfn.NewCacherSupervision(h.env, part, cp)
	sup, err := supervise.Launch(h.env, h.fw, vc, ring, 256, fn, supTestPolicy())
	if err != nil {
		t.Fatal(err)
	}

	dataA := bytes.Repeat([]byte{0xa1, 7}, 2048) // 8 blocks = one heat bucket
	dataB := bytes.Repeat([]byte{0xb2, 9}, 2048)
	h.run(t, func(p *sim.Proc) {
		gen1 := fn.Cacher()
		// Install A at LBA 200 and heat the bucket until reads are cached.
		if st := doIO(p, v, disk, vm.OpWrite, 200, dataA); !st.OK() {
			t.Fatalf("write: %v", st)
		}
		got := make([]byte, len(dataA))
		for i := 0; i < 3; i++ {
			if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() || !bytes.Equal(got, dataA) {
				t.Fatalf("heat read %d: %v", i, st)
			}
		}
		if gen1.ReqHits == 0 {
			t.Fatalf("bucket never went hot (hits=%d fills=%d)", gen1.ReqHits, gen1.ReqFills)
		}
		// Force a miss on the hot bucket and kill the UIF while the fill's
		// backend read is in flight on the ring.
		gen1.Cache().Invalidate(200, 8)
		fillDone, fillSt := false, nvme.SCSuccess
		h.env.Go("mid-fill-read", func(p *sim.Proc) {
			buf := make([]byte, len(dataA))
			fillSt = doIO(p, v, disk, vm.OpRead, 200, buf)
			if fillSt.OK() && !bytes.Equal(buf, dataA) {
				t.Error("mid-fill read returned wrong data")
			}
			fillDone = true
		})
		p.Sleep(30 * sim.Microsecond) // let the fill reach the backend
		sup.Attachment().Kill()
		// The watchdog reconciles the stranded fill onto the fast path.
		for p.Now() < sim.Time(20*sim.Millisecond) && !fillDone {
			p.Sleep(50 * sim.Microsecond)
		}
		if !fillDone {
			t.Fatal("mid-fill read lost by the crash")
		}
		if !fillSt.OK() {
			t.Fatalf("mid-fill read failed: %v", fillSt)
		}
		// While degraded, overwrite the previously cached block on the
		// fast path — the dead generation still holds A and cannot see
		// this write.
		if sup.State() != supervise.StateDegraded {
			t.Fatalf("state = %v, want degraded", sup.State())
		}
		if st := doIO(p, v, disk, vm.OpWrite, 200, dataB); !st.OK() {
			t.Fatalf("degraded write: %v", st)
		}
		if gen1.ReqWrites != 1 {
			t.Fatalf("degraded write reached the dead cache UIF (writes=%d)", gen1.ReqWrites)
		}
		// After restart the cache is cold: no stale A, reads return B.
		if !waitState(p, sup, supervise.StateRouted, 20*sim.Millisecond) {
			t.Fatalf("cacher never restarted: %s", sup.String())
		}
		if fn.Cacher() == gen1 {
			t.Fatal("restart reused the dead cache generation")
		}
		for i := 0; i < 3; i++ {
			if st := doIO(p, v, disk, vm.OpRead, 200, got); !st.OK() {
				t.Fatalf("read %d after restart: %v", i, st)
			}
			if !bytes.Equal(got, dataB) {
				t.Fatalf("stale cache hit after restart on read %d", i)
			}
		}
	})
	if sup.Detections == 0 || sup.Restarts == 0 {
		t.Fatalf("supervision did not run: %s", sup.String())
	}
}

// A replicator UIF crashing in the middle of a resync pass must not wedge
// the mirror: the pass aborts cleanly, writes arriving while degraded are
// dirty-tracked by the native fallback classifier, and the restarted
// generation drains everything back to a bit-identical secondary.
func TestSupervisedReplicatorCrashMidResyncConverges(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()

	remoteCPU := sim.NewCPU(h.env, 4)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rstore := device.NewMemStore(512)
	rdev := device.New(h.env, rp, rstore)
	rbdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(rdev, 1), remoteCPU, 3, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(h.env)
	tgt := nvmeof.NewTarget(h.env, rbdev, remoteCPU)
	ini := nvmeof.NewInitiator(h.env, link, tgt)
	if err := ini.SetRecovery(tightOfRecovery); err != nil {
		t.Fatal(err)
	}
	rep := storfn.NewReplicator()
	ring := blockdev.NewURing(h.env, ini, blockdev.DefaultURingCosts())
	fn := storfn.NewReplicatorSupervision(part, rep)
	sup, err := supervise.Launch(h.env, h.fw, vc, ring, 256, fn, supTestPolicy())
	if err != nil {
		t.Fatal(err)
	}
	primary := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(h.dev, 1), h.cpu, 12, blockdev.DefaultCosts())
	rcfg := storfn.DefaultResyncConfig()
	rcfg.Rate = 20e6 // slow drain: a wide mid-resync window to crash into
	rs, err := storfn.NewResyncer(h.env, rep, primary, sup.Attachment(), h.cpu.ThreadOn(13, "resync"), h.dev.Params().LBAShift, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	fn.SetResyncer(rs)
	ini.OnReconnect(rs.Trigger)

	link.ScheduleOutage(0, 2*sim.Millisecond)
	dataA := make([]byte, 64<<10) // big enough that the slow resync pass is interruptible
	for i := range dataA {
		dataA[i] = byte(i*7 + 3)
	}
	dataC := bytes.Repeat([]byte{0xcc, 0x33}, 2048)
	h.run(t, func(p *sim.Proc) {
		// Dirty a large range during the outage (primary-only, degraded).
		if st := doIO(p, v, disk, vm.OpWrite, 200, dataA); !st.OK() {
			t.Fatalf("degraded write: %v", st)
		}
		// Wait for the link-up resync to start, then crash the UIF mid-pass.
		for p.Now() < sim.Time(20*sim.Millisecond) && rs.State() != storfn.StateResyncing {
			p.Sleep(20 * sim.Microsecond)
		}
		if rs.State() != storfn.StateResyncing {
			t.Fatal("resync never started after link-up")
		}
		sup.Attachment().Kill()
		// A UIF that dies idle is detected once a guest command strands on
		// it. Whether the restart after the outage's own stall detection
		// has landed by now depends on the jittered backoff, so a write
		// either strands on the dead generation (and reconciles as
		// degraded-complete) or takes the degraded path directly.
		h.env.Go("stranded-write", func(p *sim.Proc) {
			if st := doIO(p, v, disk, vm.OpWrite, 2048, dataC); !st.OK() {
				t.Errorf("write racing the crash: %v", st)
			}
		})
		if !waitState(p, sup, supervise.StateDegraded, 5*sim.Millisecond) {
			t.Fatalf("crash not detected: %s", sup.String())
		}
		// A write landing while degraded goes primary-only through the
		// native fallback classifier and is dirty-tracked for resync. (The
		// dirty total is no measure: an aborting resync pass may hold a
		// chunk out of the set while its copy fails.)
		before := fn.DegradedWrites
		if st := doIO(p, v, disk, vm.OpWrite, 4096, dataC); !st.OK() {
			t.Fatalf("write while degraded: %v", st)
		}
		if fn.DegradedWrites == before || !rep.Dirty.Contains(part.Start+4096) {
			t.Fatalf("degraded write not dirty-tracked (degraded writes %d->%d, dirty %v)",
				before, fn.DegradedWrites, rep.Dirty.Ranges())
		}
		// Restart, re-point the resyncer at the new generation and drain.
		if !waitState(p, sup, supervise.StateRouted, 20*sim.Millisecond) {
			t.Fatalf("replicator never restarted: %s", sup.String())
		}
		deadline := p.Now().Add(2 * sim.Second)
		for rs.State() != storfn.StateInSync && p.Now() < deadline {
			if rs.State() == storfn.StateDegraded {
				rs.Trigger()
			}
			p.Sleep(sim.Millisecond)
		}
		if rs.State() != storfn.StateInSync || rep.Dirty.Blocks() != 0 {
			t.Fatalf("mirror did not converge: state=%v dirty=%d", rs.State(), rep.Dirty.Blocks())
		}
	})
	if h.store.ContentCRC() != rstore.ContentCRC() {
		t.Fatal("secondary diverged from primary after crash-mid-resync recovery")
	}
	if sup.Detections == 0 || sup.Restarts == 0 {
		t.Fatalf("supervision did not run: %s", sup.String())
	}
	// Stranded secondary writes reconcile as degraded-complete (the
	// primary leg carried the data), never as guest errors.
	if sup.ReconciledErr != 0 {
		t.Fatalf("replicator reconcile failed guest writes: %s", sup.String())
	}
}

// The supervised replicator keeps mirroring correctly across a crash with
// no resync in flight: post-restart writes replicate to the secondary
// again (promotion restored the routed classifier and ring wiring).
func TestSupervisedReplicatorMirrorsAfterRestart(t *testing.T) {
	h := newHost()
	v, vc, disk := h.addVM(t, 0)
	part := vc.Partition()

	remoteCPU := sim.NewCPU(h.env, 4)
	rp := device.Default970EvoPlus()
	rp.JitterPct, rp.TailProb = 0, 0
	rstore := device.NewMemStore(512)
	rdev := device.New(h.env, rp, rstore)
	rbdev := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(rdev, 1), remoteCPU, 3, blockdev.DefaultCosts())
	link := nvmeof.DefaultLink(h.env)
	tgt := nvmeof.NewTarget(h.env, rbdev, remoteCPU)
	ini := nvmeof.NewInitiator(h.env, link, tgt)
	rep := storfn.NewReplicator()
	ring := blockdev.NewURing(h.env, ini, blockdev.DefaultURingCosts())
	fn := storfn.NewReplicatorSupervision(part, rep)
	sup, err := supervise.Launch(h.env, h.fw, vc, ring, 256, fn, supTestPolicy())
	if err != nil {
		t.Fatal(err)
	}
	primary := blockdev.NewNVMeBlockDev(h.env, device.WholeNamespace(h.dev, 1), h.cpu, 12, blockdev.DefaultCosts())
	rs, err := storfn.NewResyncer(h.env, rep, primary, sup.Attachment(), h.cpu.ThreadOn(13, "resync"), h.dev.Params().LBAShift, storfn.DefaultResyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	fn.SetResyncer(rs)
	ini.OnReconnect(rs.Trigger)

	data := bytes.Repeat([]byte{0x5a, 0xa5}, 2048)
	h.run(t, func(p *sim.Proc) {
		if st := doIO(p, v, disk, vm.OpWrite, 64, data); !st.OK() {
			t.Fatalf("mirrored write: %v", st)
		}
		sup.Attachment().Wedge(sim.Second)
		if st := doIO(p, v, disk, vm.OpWrite, 128, data); !st.OK() {
			t.Fatalf("write across the wedge: %v", st)
		}
		if !waitState(p, sup, supervise.StateRouted, 20*sim.Millisecond) {
			t.Fatalf("replicator never restarted: %s", sup.String())
		}
		if st := doIO(p, v, disk, vm.OpWrite, 192, data); !st.OK() {
			t.Fatalf("write after restart: %v", st)
		}
		deadline := p.Now().Add(2 * sim.Second)
		for rs.State() != storfn.StateInSync && p.Now() < deadline {
			if rs.State() == storfn.StateDegraded {
				rs.Trigger()
			}
			p.Sleep(sim.Millisecond)
		}
		if rs.State() != storfn.StateInSync {
			t.Fatalf("mirror did not converge: state=%v dirty=%d", rs.State(), rep.Dirty.Blocks())
		}
	})
	if h.store.ContentCRC() != rstore.ContentCRC() {
		t.Fatal("secondary diverged after wedge recovery")
	}
}
