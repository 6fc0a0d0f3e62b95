package harness

import (
	"testing"

	"nvmetro/internal/fault"
	"nvmetro/internal/fio"
	"nvmetro/internal/sim"
)

// End-to-end acceptance: a full replication fio run with 1% media errors
// on the remote device plus a 10 ms fabric outage completes with zero
// hangs (every accepted guest command produces a completion), runs the
// degraded path (failed secondary writes, a reconnect, link-up requeues),
// drains it back (the resync engine copies the dirty regions and the
// mirror reaches InSync with none left), and re-running with the same
// seed reproduces the identical counter trace.
func TestFaultE2EReplicationWithOutage(t *testing.T) {
	o := Options{Quick: true, Seed: 1}
	cfg := faultCfg(o)
	cfg.Mode = fio.RandWrite
	warm, _ := o.windows()
	mk := func() *fault.Plan { return fault.NewPlan(o.Seed).WithMediaErrors(0.01) }
	outages := []fault.Outage{{At: sim.Time(0).Add(warm + 2*sim.Millisecond), Dur: 10 * sim.Millisecond}}
	a := runFaultRepl(o, mk(), outages, cfg, 4)
	if !a.drained {
		t.Fatal("guest commands stuck in flight after the run (hang)")
	}
	for _, c := range []string{"rep.degraded", "rep.secondary_errors", "of.reconnects", "of.requeues", "rs.resynced_blocks"} {
		if a.counters.Get(c) == 0 {
			t.Fatalf("%s is 0: %s", c, a.counters.String())
		}
	}
	if a.counters.Get("rs.settled") != 1 {
		t.Fatalf("the mirror did not drain back to InSync with no dirty blocks: %s", a.counters.String())
	}
	// Degraded mode masks secondary failures entirely: only the remote
	// device and the fabric are faulty, so the guest sees zero errors.
	if a.res.Errors != 0 || a.counters.Get("rt.guest_errors") != 0 {
		t.Fatalf("guest saw errors despite degraded mode: fio=%d router=%d",
			a.res.Errors, a.counters.Get("rt.guest_errors"))
	}

	b := runFaultRepl(o, mk(), outages, cfg, 4)
	if a.counters.String() != b.counters.String() {
		t.Fatalf("same seed produced different fault traces:\n%s\n%s", a.counters.String(), b.counters.String())
	}
	if a.res.Ops != b.res.Ops || a.res.Errors != b.res.Errors {
		t.Fatalf("same seed produced different results: ops %d/%d errors %d/%d",
			a.res.Ops, b.res.Ops, a.res.Errors, b.res.Errors)
	}
}

// Same-seed runs of the fast-path drop scenario must produce identical
// error/retry/timeout counters.
func TestFaultDeterminismFastPath(t *testing.T) {
	o := Options{Quick: true, Seed: 5}
	cfg := faultCfg(o)
	mk := func() *fault.Plan { return fault.NewPlan(o.Seed).WithDrops(0.02, 0) }
	nvmetro := basicSolutions()[0].mk
	a := runFault(o, nvmetro, mk(), tightRouter, cfg, 4)
	b := runFault(o, nvmetro, mk(), tightRouter, cfg, 4)
	if !a.drained || !b.drained {
		t.Fatal("run did not drain")
	}
	if a.counters.Get("rt.hq_timeouts") == 0 {
		t.Fatalf("drop plan injected nothing: %s", a.counters.String())
	}
	if a.counters.String() != b.counters.String() {
		t.Fatalf("same seed produced different fault traces:\n%s\n%s", a.counters.String(), b.counters.String())
	}
}

// Media errors surface as guest-visible completions on the baseline MDev
// stack too — error propagation is not NVMetro-specific.
func TestFaultMediaErrorsSurfaceOnMDev(t *testing.T) {
	o := Options{Quick: true, Seed: 2}
	fr := runFault(o, basicSolutions()[1].mk, fault.NewPlan(o.Seed).WithMediaErrors(0.05), nil, faultCfg(o), 4)
	if fr.res.Errors == 0 {
		t.Fatalf("5%% media errors produced no guest errors: %s", fr.counters.String())
	}
	if fr.counters.Get("dev.injected") == 0 {
		t.Fatal("injector idle")
	}
}
