package harness

import (
	"nvmetro/internal/cow"
	"nvmetro/internal/stack"
	"nvmetro/internal/storfn"
	"nvmetro/internal/uif"
)

// table1LoC rebuilds Table I: source sizes of the classifier and UIF
// implementations. Classifier rows count eBPF assembly lines; UIF rows
// count Go lines. The paper's numbers (32/520/501/16/307 lines of C and
// C++, 1116 for the framework) differ in absolute terms — different
// languages — but the ordering (classifiers tiny, UIFs small, framework
// carrying the weight) is the reproduced claim.
func table1LoC() *Table {
	lc := storfn.LineCounts()
	t := &Table{ID: "table1", Title: "Source code sizes (this implementation)", Unit: "lines", Cols: []string{"Lines"}}
	t.add("Encryptor  | Classifier (eBPF asm)", float64(lc["encryptor-classifier"]))
	t.add("Encryptor  | Normal UIF (Go)", float64(lc["encryptor-uif"]))
	t.add("Encryptor  | SGX UIF (Go)", float64(lc["sgx-uif"]))
	t.add("Replicator | Classifier (eBPF asm)", float64(lc["replicator-classifier"]))
	t.add("Replicator | UIF (Go)", float64(lc["replicator-uif"]))
	t.add("Cache      | Classifier (eBPF asm)", float64(lc["cache-classifier"]))
	t.add("Cache      | UIF (Go)", float64(lc["cache-uif"]))
	t.add("Partition  | Classifier (eBPF asm)", float64(lc["partition-classifier"]))
	t.add("Snapshot   | CoW store (Go)", float64(cow.Lines()["cow-store"]))
	t.add("Snapshot   | Clone wiring (Go)", float64(stack.SnapshotWiringLines()))
	t.add("Framework  | (Go)", float64(uif.FrameworkLines()))
	t.Notes = "Paper (Table I): classifier 32/16, UIFs 520/501/307, framework 1116 lines."
	return t
}
