package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenDir holds quick-mode seed-1 CSVs rendered by the event-queue
// implementation the scheduler rewrite replaced. Byte-identity against them
// is the determinism contract of the DES core: any change to event ordering,
// RNG consumption, or table assembly shows up here as a diff.
const goldenDir = "testdata/golden-quick"

// goldenOptions is the exact configuration the goldens were generated with.
func goldenOptions() Options { return Options{Quick: true, Seed: 1} }

// TestGoldenCSVs re-runs every experiment with a checked-in golden and
// requires byte-identical CSV output. In -short mode only the cheap
// experiments run; the race detector also gets the short list, because the
// full sweep is single-simulation determinism work that plain `go test`
// and the non-race sim-smoke line already cover in full.
func TestGoldenCSVs(t *testing.T) {
	ids := []string{"fig5", "table2", "qos"}
	if !testing.Short() && !raceEnabled {
		ids = []string{
			"fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "qos", "fault",
			"resync", "cache", "chaos", "scrub", "bootstorm",
			"scale", "table2",
		}
	}
	covered := map[string]bool{}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			for _, tbl := range e.Run(goldenOptions()) {
				covered[tbl.ID] = true
				path := filepath.Join(goldenDir, tbl.ID+".csv")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden for table %s: %v", tbl.ID, err)
				}
				if got := tbl.CSV(); got != string(want) {
					t.Errorf("table %s diverged from %s:\n--- got ---\n%s--- want ---\n%s",
						tbl.ID, path, got, want)
				}
			}
		})
	}
	if testing.Short() || raceEnabled {
		return
	}
	// Every golden must have been exercised; a stale file would silently
	// stop guarding anything.
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		id := ent.Name()[:len(ent.Name())-len(".csv")]
		if !covered[id] {
			t.Errorf("golden %s matched no produced table", ent.Name())
		}
	}
}
