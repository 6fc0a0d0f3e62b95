package harness

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/integrity"
	"nvmetro/internal/qos"
	"nvmetro/internal/stack"
)

// End-to-end acceptance for the integrity subsystem: every injected
// silent-corruption kind must be (a) detected — no wrong-data completion
// ever reaches the guest as an OK status, (b) repaired from the in-sync
// replica until the protected content of both legs is CRC-identical, or
// (c) quarantined when no replica exists, with guest reads of the damage
// failing honestly; and the foreground p99 under active scrub must stay
// bounded against the same-seed no-scrub baseline.
func TestScrubE2E(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	base := runScrub(o, nil, true, false)
	if !base.drained || base.auditBad != 0 || base.res.Errors != 0 {
		t.Fatalf("healthy baseline broken: drained=%v auditBad=%d errors=%d",
			base.drained, base.auditBad, base.res.Errors)
	}

	on := runScrub(o, nil, true, true)
	if !on.drained || on.auditBad != 0 || on.res.Errors != 0 || on.tailErr != 0 {
		t.Fatalf("healthy scrub-on run broken: drained=%v auditBad=%d errors=%d tailErr=%d",
			on.drained, on.auditBad, on.res.Errors, on.tailErr)
	}
	if on.scr.Passes == 0 || on.scr.ScrubbedBlocks == 0 {
		t.Fatalf("scrubber never ran: passes=%d scrubbed=%d", on.scr.Passes, on.scr.ScrubbedBlocks)
	}
	if !on.mirrorOK {
		t.Fatal("healthy scrub-on run diverged the mirror")
	}
	// Foreground cost bound: p99 under scrub within 1.5x of no-scrub.
	if b := base.res.Lat.P99(); b > 0 && float64(on.res.Lat.P99()) > 1.5*float64(b) {
		t.Fatalf("scrub foreground cost unbounded: p99 %d vs baseline %d",
			on.res.Lat.P99(), base.res.Lat.P99())
	}

	for _, c := range scrubCells() {
		sr := runScrub(o, scrubPlan(o, c.kind), c.replica, true)
		if sr.injected == 0 {
			t.Fatalf("%s: plan injected nothing", c.name)
		}
		if !sr.drained {
			t.Fatalf("%s: guest commands stuck in flight", c.name)
		}
		// Detection: the scrubber confirmed damage, and no stamped,
		// unquarantined block fails PI at the end — wrong data is never
		// left servable.
		if !sr.scr.Detected {
			t.Fatalf("%s: corruption never detected: %s", c.name, sr.counters.String())
		}
		if sr.auditBad != 0 {
			t.Fatalf("%s: %d servable blocks fail PI after scrub: %s",
				c.name, sr.auditBad, sr.counters.String())
		}
		if c.replica {
			// Repairable: converged to CRC-identical protected content and
			// the guest audit sweep of the damaged region is error-free.
			if sr.scr.RepairedBlocks == 0 {
				t.Fatalf("%s: nothing repaired: %s", c.name, sr.counters.String())
			}
			if !sr.mirrorOK {
				t.Fatalf("%s: mirror legs not CRC-identical after repair", c.name)
			}
			if sr.quarBlks != 0 || sr.tailErr != 0 {
				t.Fatalf("%s: repairable damage left quarantined (quar=%d tailErr=%d)",
					c.name, sr.quarBlks, sr.tailErr)
			}
		} else {
			// Unrepairable: quarantined, and guest reads of the damage fail
			// with an honest media error instead of returning wrong bytes.
			if sr.quarBlks == 0 {
				t.Fatalf("%s: unrepairable damage not quarantined: %s", c.name, sr.counters.String())
			}
			if sr.tailErr == 0 || sr.counters.Get("rt.quarantined_reads") == 0 {
				t.Fatalf("%s: quarantined reads not guest-visible (tailErr=%d quar_reads=%d)",
					c.name, sr.tailErr, sr.counters.Get("rt.quarantined_reads"))
			}
		}
	}
}

// Same seed, same cell, byte-identical outcome: the corruption draw, the
// scrub schedule, and every counter must reproduce exactly.
func TestScrubDeterminism(t *testing.T) {
	o := Options{Quick: true, Seed: 7}
	run := func() scrubRun { return runScrub(o, scrubPlan(o, fault.MisdirectedWrite), true, true) }
	a, b := run(), run()
	if !a.counters.Equal(&b.counters) {
		t.Fatalf("same-seed runs diverge:\n%s\nvs\n%s", a.counters.String(), b.counters.String())
	}
	if a.injected != b.injected || a.detectUs != b.detectUs || a.quarBlks != b.quarBlks {
		t.Fatalf("same-seed scalar outcomes diverge: %+v vs %+v", a, b)
	}
}

// Satellite: scrubber pacing must not break a tenant's QoS contract. A
// rate-contracted tenant saturating its cap keeps its delivered IOPS and
// its tail while an aggressively-paced scrub runs over its stamped
// extents on the same device.
func TestScrubQoSContract(t *testing.T) {
	const contractIOPS = 50000
	o := Options{Quick: true, Seed: 1}

	run := func(scrubOn bool) (fio.Result, *integrity.Scrubber) {
		env, h := newBed(o, device.NewMemStore(512))
		defer env.Close()
		v := h.NewVM(4, 512<<20)
		scrub := scrubConfig()
		vol := stack.NewNVMetro(h).WithQoS(qos.Config{}).Attach(v, device.WholeNamespace(h.Dev, 1),
			stack.Spec{Integrity: &scrub, QoS: &qos.TenantConfig{IOPS: contractIOPS, BurstOps: 64}})
		disk, vc, scr := vol.Disk, vol.Ctrl, vol.Scrubber
		if scrubOn {
			scr.Start()
		}
		var targets []fio.Target
		for i := 0; i < 4; i++ {
			targets = append(targets, fio.Target{Disk: disk, VM: v, VCPU: v.VCPU(i % v.NumVCPUs())})
		}
		res := fio.Run(env, h.CPU, targets, scrubCfg(o))
		scr.Stop()
		if !drainOutstanding(env, vc.Outstanding) {
			t.Fatalf("scrubOn=%v: guest commands stuck in flight", scrubOn)
		}
		return res, scr
	}

	base, _ := run(false)
	under, scr := run(true)
	if scr.Passes == 0 && scr.ScrubbedBlocks == 0 {
		t.Fatal("scrubber made no progress during the window")
	}
	// The tenant saturates its contract in both runs...
	for _, r := range []struct {
		name string
		res  fio.Result
	}{{"no-scrub", base}, {"under-scrub", under}} {
		if got := r.res.KIOPS() * 1e3; got < 0.9*contractIOPS || got > 1.1*contractIOPS {
			t.Fatalf("%s: delivered %.0f IOPS, contract %d", r.name, got, contractIOPS)
		}
	}
	// ...and active scrub does not degrade its contracted service: IOPS
	// within 5% and p99 within 1.5x of the scrub-off run.
	if under.KIOPS() < 0.95*base.KIOPS() {
		t.Fatalf("scrub stole contracted throughput: %.1f vs %.1f kIOPS", under.KIOPS(), base.KIOPS())
	}
	if b := base.Lat.P99(); b > 0 && float64(under.Lat.P99()) > 1.5*float64(b) {
		t.Fatalf("scrub blew the tenant tail: p99 %d vs %d", under.Lat.P99(), b)
	}
}
