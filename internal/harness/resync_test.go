package harness

import (
	"testing"

	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
)

// End-to-end acceptance for the resync engine: a full replication fio
// run through two fabric outages — the second landing while the resync
// drain from the first is still in flight — must converge to InSync
// with a CRC-identical secondary, zero guest-visible errors, zero
// leaked dirty regions, and a bit-identical counter trace across
// same-seed runs.
func TestResyncE2EOutageMidResync(t *testing.T) {
	o := Options{Quick: true, Seed: 7}
	cfg := faultCfg(o)
	cfg.Mode = fio.RandWrite
	warm, _ := o.windows()
	at := func(d sim.Duration) sim.Time { return sim.Time(0).Add(warm + d) }
	rcfg := storfn.DefaultResyncConfig()
	rcfg.Rate = 20e6 // slow drain so the second outage lands mid-resync
	outages := []fault.Outage{
		{At: at(sim.Millisecond), Dur: 3 * sim.Millisecond},
		{At: at(6 * sim.Millisecond), Dur: 2 * sim.Millisecond},
	}

	a := runResync(o, outages, rcfg, cfg, 4)
	if !a.drained {
		t.Fatal("guest commands stuck in flight after the run (hang)")
	}
	if !a.converged {
		t.Fatalf("mirror did not converge to InSync: %s", a.counters.String())
	}
	if a.finalDirty != 0 {
		t.Fatalf("leaked %d dirty blocks after convergence: %s", a.finalDirty, a.counters.String())
	}
	if !a.mirrorMatch {
		t.Fatalf("secondary not bit-identical after resync: %s", a.counters.String())
	}
	// Outages are secondary-leg-only events: the guest must see none of it.
	if a.res.Errors != 0 || a.counters.Get("fio.errors") != 0 {
		t.Fatalf("guest saw errors despite degraded mode: fio=%d", a.res.Errors)
	}
	if a.counters.Get("rep.degraded") == 0 {
		t.Fatalf("outages produced no degraded writes: %s", a.counters.String())
	}
	if a.counters.Get("rs.resynced_blocks") == 0 {
		t.Fatalf("resync copied nothing: %s", a.counters.String())
	}
	// The second outage must interrupt the drain: either the copy loop
	// aborted back to Degraded or the state machine re-entered Resyncing.
	if a.counters.Get("rs.aborts") == 0 && a.counters.Get("rs.to_resyncing") < 2 {
		t.Fatalf("second outage did not interrupt the resync: %s", a.counters.String())
	}

	b := runResync(o, outages, rcfg, cfg, 4)
	if !a.counters.Equal(&b.counters) {
		t.Fatalf("same seed produced different resync traces:\n%s\n%s",
			a.counters.String(), b.counters.String())
	}
	if a.res.Ops != b.res.Ops {
		t.Fatalf("same seed produced different op counts: %d/%d", a.res.Ops, b.res.Ops)
	}
}
