package harness

import "testing"

// compareRuns runs experiment id at both worker counts and requires
// byte-identical CSVs.
func compareRuns(t *testing.T, id string, serialWorkers, parallelWorkers int) {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	serial := e.Run(Options{Quick: true, Seed: 7, Workers: serialWorkers})
	parallel := e.Run(Options{Quick: true, Seed: 7, Workers: parallelWorkers})
	if len(serial) != len(parallel) {
		t.Fatalf("table count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		sCSV, pCSV := serial[i].CSV(), parallel[i].CSV()
		if sCSV != pCSV {
			t.Errorf("table %s differs between %d-worker and %d-worker runs:\n--- serial ---\n%s--- parallel ---\n%s",
				serial[i].ID, serialWorkers, parallelWorkers, sCSV, pCSV)
		}
	}
}

// TestParallelMatchesSerial checks that running experiment grid points
// across workers produces byte-identical tables to a serial run: every grid
// point is an isolated deterministic sim, and assembly is order-stable.
func TestParallelMatchesSerial(t *testing.T) {
	ids := []string{"fig3", "fig5"}
	if !testing.Short() {
		ids = append(ids, "fig4", "fig6")
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) { compareRuns(t, id, 1, 4) })
	}
}

// TestShardedMatchesSerial checks the cell-level fan-out of the rig
// experiments: each table is built from independent cell runs that cells
// returns in index order, so it must render byte-identically at any worker
// count.
func TestShardedMatchesSerial(t *testing.T) {
	ids := []string{"resync", "cache"}
	if !testing.Short() {
		ids = append(ids, "fault", "scrub", "bootstorm", "chaos")
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) { compareRuns(t, id, 1, 8) })
	}
}
