package nvmeof

import (
	"fmt"
	"strings"
	"testing"

	"nvmetro/internal/blockdev"
	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// runProcess is the target's process form, kept as the reference its
// reactor is held to: wait for a capsule, charge PerCmd, submit the bio,
// blocking on each.
func (t *Target) runProcess(p *sim.Proc) {
	for {
		if t.head == len(t.queue) {
			t.wake.Wait()
			continue
		}
		c := t.queue[t.head]
		t.queue[t.head] = capsule{}
		if t.head++; t.head == len(t.queue) {
			t.queue, t.head = t.queue[:0], 0
		}
		t.th.Exec(p, t.PerCmd)
		t.Served++
		bio := &blockdev.Bio{Op: c.op, Sector: c.sector, Data: c.data, NSect: c.nsect}
		bio.OnDone = func(st nvme.Status) {
			var rdata []byte
			if c.op == blockdev.BioRead {
				rdata = c.data
			}
			c.fl.reply(st, rdata)
		}
		blockdev.SubmitAndWait(p, t.bdev, t.th, bio)
	}
}

// runTargetLockstep drives two initiators sharing one target over links
// with outages, from processes issuing reads, writes and flushes, with the
// target's reactor or its process form. It returns the books at every run
// limit and the completions in order.
func runTargetLockstep(seed int64, process bool) (books, log []string) {
	env := sim.New(seed)
	defer env.Close()
	localCPU, remoteCPU := sim.NewCPU(env, 4), sim.NewCPU(env, 2)
	dev := device.New(env, device.Default970EvoPlus(), device.NewMemStore(512))
	bdev := blockdev.NewNVMeBlockDev(env, device.WholeNamespace(dev, 1), remoteCPU, 1, blockdev.DefaultCosts())
	tgt := &Target{bdev: bdev, th: remoteCPU.NewThread("nvmeof-tgt"), wake: sim.NewCond(env), PerCmd: 2 * sim.Microsecond}
	tgt.stepRun, tgt.stepCharged = tgt.run, tgt.charged
	if process {
		env.Go("nvmeof-target", tgt.runProcess)
	} else {
		env.After(0, tgt.stepRun)
	}
	var inis []*Initiator
	for i := 0; i < 2; i++ {
		link := DefaultLink(env)
		link.ScheduleOutage(sim.Time(300*sim.Microsecond+sim.Duration(i)*150*sim.Microsecond), 80*sim.Microsecond)
		ini := NewInitiator(env, link, tgt)
		ini.SetRecovery(InitiatorRecovery{Timeout: 150 * sim.Microsecond, MaxRetries: 3, Backoff: 20 * sim.Microsecond, Jitter: 0.25})
		inis = append(inis, ini)
	}
	for w := 0; w < 6; w++ {
		ini, th := inis[w%2], localCPU.ThreadOn(w%4, "host")
		env.Go(fmt.Sprintf("submitter%d", w), func(p *sim.Proc) {
			done := sim.NewCond(env)
			for i := 0; ; i++ {
				b := &blockdev.Bio{Op: blockdev.BioOp(i % 3), Sector: uint64(w*64+i%64) * 8, Data: make([]byte, 4096)}
				if b.Op == blockdev.BioFlush {
					b.Data = nil
				}
				finished := false
				b.OnDone = func(st nvme.Status) {
					log = append(log, fmt.Sprintf("%v w%d #%d %v %v", env.Now(), w, i, b.Op, st))
					finished = true
					done.Signal(nil)
				}
				ini.SubmitBio(p, th, b)
				for !finished && i%4 == 0 {
					done.Wait()
				}
			}
		})
	}
	start := localCPU.Snapshot()
	rstart := remoteCPU.Snapshot()
	for k := 1; k <= 40; k++ {
		env.RunUntil(sim.Time(sim.Duration(k) * 25 * sim.Microsecond))
		var b strings.Builder
		fmt.Fprintf(&b, "t=%v dispatched=%d served=%d local=%v remote=%v", env.Now(), env.Dispatched(), tgt.Served,
			localCPU.Since(start).ByTag, remoteCPU.Since(rstart).ByTag)
		for _, ini := range inis {
			fmt.Fprintf(&b, " [sent=%d retries=%d requeues=%d failures=%d stale=%d]", ini.Sent, ini.Retries, ini.Requeues, ini.Failures, ini.StaleResponses)
		}
		books = append(books, b.String())
	}
	return books, log
}

// TestTargetLockstepWithProcess holds the NVMe-oF target's reactor to its
// process form: two initiators over links with outages (resends, requeues,
// stale responses), six submitters, reads, writes and flushes. At every run
// limit both agree on the instant, the events dispatched, the CPU time of
// every tag on both hosts and the initiators' and target's counters, and on
// every completion, in order, with its instant.
func TestTargetLockstepWithProcess(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref, refLog := runTargetLockstep(seed, true)
		got, gotLog := runTargetLockstep(seed, false)
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("seed %d: the books diverge at limit %d:\n reactor: %s\n process: %s", seed, k, got[k], ref[k])
			}
		}
		if strings.Join(gotLog, "\n") != strings.Join(refLog, "\n") {
			t.Fatalf("seed %d: the completions differ (%d vs %d)", seed, len(gotLog), len(refLog))
		}
		if !strings.Contains(ref[len(ref)-1], "requeues=") || strings.Contains(ref[len(ref)-1], "retries=0 requeues=0") {
			t.Fatalf("seed %d: weak scenario, no resends: %s", seed, ref[len(ref)-1])
		}
	}
}
