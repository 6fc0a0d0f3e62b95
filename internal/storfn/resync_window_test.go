package storfn

import (
	"testing"

	"nvmetro/internal/sim"
)

// TestResyncWindowRedirty exercises the write-ordering machinery in
// isolation: guest writes overlapping the in-flight copy window must be
// re-dirtied, writes outside it must not, and a secondary-leg failure
// mid-resync must poison the window.
func TestResyncWindowRedirty(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	rep := NewReplicator()
	rs, err := NewResyncer(env, rep, nil, nil, nil, 9, DefaultResyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.State() != StateInSync {
		t.Fatalf("fresh mirror state %v", rs.State())
	}

	// A failing guest mirror write degrades the mirror.
	rep.Dirty.Add(100, 8)
	rs.noteSecondaryFailure(100, 8)
	if rs.State() != StateDegraded || rs.ToDegraded != 1 {
		t.Fatalf("after failure: state=%v to_degraded=%d", rs.State(), rs.ToDegraded)
	}

	// Simulate the worker mid-copy: window open over [100,116).
	rs.setState(StateResyncing)
	rep.Dirty.Remove(100, 8)
	rs.openWindow(100, 16)

	// Successful guest write overlapping the window: overlap re-dirtied.
	rs.noteGuestWrite(90, 20) // overlap = [100,110)
	if !rs.winDirtied || rs.RedirtiedBlocks != 10 || !rep.Dirty.Contains(100) || !rep.Dirty.Contains(109) {
		t.Fatalf("overlap not re-dirtied: dirtied=%v redirtied=%d dirty=%v",
			rs.winDirtied, rs.RedirtiedBlocks, rep.Dirty.Ranges())
	}
	if rep.Dirty.Contains(110) || rep.Dirty.Contains(99) {
		t.Fatalf("re-dirtied beyond the overlap: %v", rep.Dirty.Ranges())
	}

	// A write clear of the window changes nothing.
	before := rep.Dirty.Blocks()
	rs.noteGuestWrite(500, 8)
	if rep.Dirty.Blocks() != before {
		t.Fatal("write outside the window re-dirtied blocks")
	}

	// Window closed: subsequent writes are not in any copy's shadow.
	rs.closeWindow()
	rs.noteGuestWrite(100, 8)
	if rep.Dirty.Blocks() != before {
		t.Fatal("write after window close re-dirtied blocks")
	}

	// A failing guest mirror write during resync poisons the open window
	// (same failing leg as the copy in flight) but does not change state —
	// the worker handles its own error when the copy completes.
	rs.openWindow(0, 8)
	rs.noteSecondaryFailure(4, 2)
	if !rs.winDirtied || rs.State() != StateResyncing {
		t.Fatalf("mid-resync failure: dirtied=%v state=%v", rs.winDirtied, rs.State())
	}
}

// TestResyncConfigValidation checks install-time policy validation.
func TestResyncConfigValidation(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	if _, err := NewResyncer(env, NewReplicator(), nil, nil, nil, 9, ResyncConfig{Rate: 0}); err == nil {
		t.Fatal("zero rate limit accepted")
	}
	if _, err := NewResyncer(env, NewReplicator(), nil, nil, nil, 9, ResyncConfig{Rate: -5}); err == nil {
		t.Fatal("negative rate limit accepted")
	}
	rs, err := NewResyncer(env, NewReplicator(), nil, nil, nil, 9, ResyncConfig{Rate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(2 * resyncChunkBlocks << 9); rs.tokens != want {
		t.Fatalf("bucket starts with %v bytes of credit, want two chunks (%v)", rs.tokens, want)
	}
}

// TestResyncAttachDegraded checks that attaching a resyncer to a mirror
// that already has dirty regions starts it in Degraded, not InSync.
func TestResyncAttachDegraded(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	rep := NewReplicator()
	rep.Dirty.Add(0, 64)
	rs, err := NewResyncer(env, rep, nil, nil, nil, 9, DefaultResyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.State() != StateDegraded {
		t.Fatalf("attach over dirty mirror: state %v", rs.State())
	}
}
