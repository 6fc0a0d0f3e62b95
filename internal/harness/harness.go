// Package harness is the evaluation driver: it rebuilds the paper's entire
// testbed per configuration (fresh simulation, host, device, VMs, solution
// stack), runs the fio and YCSB workloads of Section V, and renders one
// table per paper figure. Every experiment is registered by figure ID and
// runnable individually from cmd/nvmetro-bench or the root bench suite.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Options controls run scale.
type Options struct {
	Quick bool  // shorter windows and a thinner grid for CI/bench runs
	Seed  int64 // simulation seed
	// Workers is the number of concurrent grid points. The zero value —
	// the default — resolves to runtime.GOMAXPROCS(0), so grids run
	// parallel unless a caller forces Workers to 1 (serial). Results are
	// identical either way; see TestParallelMatchesSerial.
	Workers int
}

// Table is one rendered result table.
type Table struct {
	ID    string
	Title string
	Unit  string
	Cols  []string
	Rows  []tableRow
	Notes string
}

// tableRow is one labeled result row.
type tableRow struct {
	Label string
	Cells []float64
}

// add appends a row.
func (t *Table) add(label string, cells ...float64) {
	t.Rows = append(t.Rows, tableRow{Label: label, Cells: cells})
}

// bit is a 0/1 table cell: 1 when an acceptance predicate holds.
func bit(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, " (%s)", t.Unit)
	}
	fmt.Fprintln(w, " ===")
	width := 30
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(w, "%-*s", width+2, "config")
	for _, c := range t.Cols {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", width+2, r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(w, "%14.1f", c)
		}
		fmt.Fprintln(w)
	}
	if t.Notes != "" {
		fmt.Fprintln(w, t.Notes)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as CSV.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("config," + strings.Join(t.Cols, ",") + "\n")
	for _, r := range t.Rows {
		sb.WriteString(r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(&sb, ",%.3f", c)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) []*Table
}

var registry []Experiment

func register(id, title string, run func(o Options) []*Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// List returns all experiments in registration order.
func List() []Experiment { return append([]Experiment(nil), registry...) }
