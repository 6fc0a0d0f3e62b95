package core_test

import (
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/storfn"
)

// These tests hold the notify queues at a shallow depth with a slow UIF
// consumer so the router's notify-path dispatch hits NSQ-full on most rounds
// and must defer through the retry list. Every command still has to complete
// exactly once with its correct generation-stamped CID (a mismatched tag
// would either panic the guest driver on an idle CID or show up as a stale
// completion), and the worker must keep making progress rather than stall
// (r.run fails the test if simulated time runs out).

// TestNotifyBackpressureSustained drives 200 concurrent writes through a
// notify-only classifier into a depth-4 NSQ.
func TestNotifyBackpressureSustained(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.EncryptorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	u := attachFakeUIFDepth(r.env, vc, 4)
	u.delay = 20 * sim.Microsecond

	const qd, count = 8, 25
	r.run(t, func(p *sim.Proc) {
		pump(r, v, disk, qd, count)()
	})

	if len(u.seen) != qd*count {
		t.Fatalf("UIF saw %d commands, want %d (each exactly once)", len(u.seen), qd*count)
	}
	for i, c := range u.seen {
		if c.Opcode() != nvme.OpWrite {
			t.Fatalf("seen[%d] opcode %#x, want write", i, c.Opcode())
		}
	}
	if r.router.Backpressure == 0 {
		t.Fatal("depth-4 NSQ under 8-deep load never reported backpressure")
	}
	if r.router.StaleComps != 0 {
		t.Fatalf("%d stale completions: retries broke tag bookkeeping", r.router.StaleComps)
	}
	if r.router.GuestErrors != 0 {
		t.Fatalf("%d guest-visible errors under backpressure", r.router.GuestErrors)
	}
	// NotifyPath counts dispatch attempts, so sustained pressure shows as
	// many more attempts than commands.
	if r.router.NotifyPath <= qd*count {
		t.Fatalf("notify path attempts %d, want > %d (no retries happened)", r.router.NotifyPath, qd*count)
	}
}

// TestMulticastBackpressureSustained runs the two-leg replicator under the
// same NSQ pressure: the fast-path leg keeps completing while the notify
// leg backs up, and the joined completion must still be correct for every
// command.
func TestMulticastBackpressureSustained(t *testing.T) {
	r := newRig(1)
	part := device.WholeNamespace(r.dev, 1)
	v, vc, disk := r.addVM(0, part)
	prog, _ := storfn.ReplicatorClassifier(part)
	if err := vc.LoadClassifier(prog); err != nil {
		t.Fatal(err)
	}
	u := attachFakeUIFDepth(r.env, vc, 4)
	u.delay = 20 * sim.Microsecond

	const qd, count = 8, 25
	var elapsed sim.Duration
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		pump(r, v, disk, qd, count)()
		elapsed = p.Now().Sub(start)
	})

	if len(u.seen) != qd*count {
		t.Fatalf("UIF saw %d commands, want %d (each exactly once)", len(u.seen), qd*count)
	}
	if got := r.dev.Writes; got != qd*count {
		t.Fatalf("device saw %d writes, want %d (local leg must not be dropped)", got, qd*count)
	}
	// The single UIF consumer serializes the remote legs, so the run cannot
	// finish faster than the consumer drains it; finishing at all within
	// r.run's deadline is the no-stall check.
	if min := sim.Duration(qd*count) * u.delay; elapsed < min {
		t.Fatalf("elapsed %v < %v: completions did not wait for the remote leg", elapsed, min)
	}
	if r.router.Backpressure == 0 {
		t.Fatal("depth-4 NSQ under 8-deep load never reported backpressure")
	}
	if r.router.StaleComps != 0 {
		t.Fatalf("%d stale completions: retries broke tag bookkeeping", r.router.StaleComps)
	}
	if r.router.GuestErrors != 0 {
		t.Fatalf("%d guest-visible errors under backpressure", r.router.GuestErrors)
	}
}
