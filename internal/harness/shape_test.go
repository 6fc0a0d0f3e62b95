package harness

import (
	"os"
	"strings"
	"testing"

	"nvmetro/internal/fio"
	"nvmetro/internal/ycsb"
)

// These tests assert the paper's qualitative claims (who wins, approximate
// ratios) against quick harness runs, so that a regression anywhere in the
// stack is caught by `go test`.

var opt = Options{Quick: true, Seed: 7}

func TestShapeTable1(t *testing.T) {
	tab := table1LoC()
	if len(tab.Rows) < 6 {
		t.Fatal("table1 incomplete")
	}
	cls := tab.Cell("Encryptor  | Classifier (eBPF asm)", "Lines")
	fw := tab.Cell("Framework  | (Go)", "Lines")
	uifLines := tab.Cell("Encryptor  | Normal UIF (Go)", "Lines")
	// Paper's ordering: classifiers tiny << UIFs << framework.
	if !(cls > 10 && cls < 100) {
		t.Errorf("classifier size %v out of expected range", cls)
	}
	if uifLines <= cls {
		t.Errorf("UIF (%v) should be larger than classifier (%v)", uifLines, cls)
	}
	if fw <= uifLines {
		t.Errorf("framework (%v) should be the largest component (uif %v)", fw, uifLines)
	}
	tab.Fprint(os.Stderr)
}

func TestShapeEncryptionFio(t *testing.T) {
	warm, dur := opt.windows()
	run := func(i int, cfg fio.Config, jobs int) float64 {
		return runFio(opt, encSolutions()[i].mk, cfg, jobs).KIOPS()
	}
	const nvEnc, nvSGX, dmCrypt = 0, 1, 2

	// QD1: NVMetro encryption beats dm-crypt by roughly 1.4-1.6x.
	qd1 := fio.Config{Mode: fio.SeqRead, BlockSize: 16 << 10, QD: 1, Warmup: warm, Duration: dur}
	a, b := run(nvEnc, qd1, 1), run(dmCrypt, qd1, 1)
	t.Logf("16K SR qd1: NVMetro Encr %.1f vs dm-crypt %.1f kIOPS (%.2fx)", a, b, a/b)
	if a < b*1.2 {
		t.Errorf("NVMetro encryption (%.1f) should beat dm-crypt (%.1f) by >1.2x at QD1", a, b)
	}

	// High parallelism: NVMetro wins big (paper: 3.2x at 16K reads).
	hq := fio.Config{Mode: fio.SeqRead, BlockSize: 16 << 10, QD: 128, Warmup: warm, Duration: dur}
	a, b = run(nvEnc, hq, 4), run(dmCrypt, hq, 4)
	t.Logf("16K SR qd128/j4: NVMetro Encr %.1f vs dm-crypt %.1f kIOPS (%.2fx)", a, b, a/b)
	if a < b*2 {
		t.Errorf("NVMetro encryption (%.1f) should beat dm-crypt (%.1f) by >2x at high QD", a, b)
	}

	// SGX roughly matches plain at QD1...
	s := run(nvSGX, qd1, 1)
	t.Logf("16K SR qd1: SGX %.1f vs plain %.1f", s, run(nvEnc, qd1, 1))
	if s < run(nvEnc, qd1, 1)*0.7 {
		t.Errorf("SGX (%.1f) should be close to plain encryption at QD1", s)
	}
	// ...but falls behind under heavy load (1 crypto thread vs 2).
	sHeavy := run(nvSGX, hq, 4)
	plainHeavy := run(nvEnc, hq, 4)
	t.Logf("16K SR qd128/j4: SGX %.1f vs plain %.1f", sHeavy, plainHeavy)
	if sHeavy > plainHeavy*0.95 {
		t.Errorf("SGX (%.1f) should trail plain encryption (%.1f) under heavy load", sHeavy, plainHeavy)
	}
}

func TestShapeReplicationFio(t *testing.T) {
	warm, dur := opt.windows()
	sols := repSolutions()
	run := func(i int, cfg fio.Config, jobs int) float64 {
		return runFio(opt, sols[i].mk, cfg, jobs).KIOPS()
	}
	// Reads: NVMetro serves them on the fast path; dm-mirror drags them
	// through vhost+DM (paper: +68% to +291%).
	rd1 := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1, Warmup: warm, Duration: dur}
	a, b := run(0, rd1, 1), run(1, rd1, 1)
	t.Logf("512B RR qd1: NVMetro Repl %.1f vs dm-mirror %.1f (%.2fx)", a, b, a/b)
	if a < b*1.3 {
		t.Errorf("replicated reads: NVMetro (%.1f) should beat dm-mirror (%.1f) by >1.3x", a, b)
	}
	rdH := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 128, Warmup: warm, Duration: dur}
	a, b = run(0, rdH, 4), run(1, rdH, 4)
	t.Logf("512B RR qd128/j4: NVMetro Repl %.1f vs dm-mirror %.1f (%.2fx)", a, b, a/b)
	if a < b*2 {
		t.Errorf("replicated reads at high QD: NVMetro (%.1f) should beat dm-mirror (%.1f) by >2x", a, b)
	}
	// Writes replicate on both (sanity: both complete, reads faster than writes).
	wr := fio.Config{Mode: fio.RandWrite, BlockSize: 512, QD: 1, Warmup: warm, Duration: dur}
	aw := run(0, wr, 1)
	if aw <= 0 {
		t.Fatal("replicated writes made no progress")
	}
	if aw >= a {
		t.Errorf("writes (%.1f) should be slower than reads (%.1f) under replication", aw, a)
	}
}

func TestShapeYCSBBasic(t *testing.T) {
	// At 1 job YCSB is mostly CPU/cache bound: solutions within ~25%.
	// At 4 jobs it becomes I/O bound and NVMetro stays near passthrough.
	sols := basicSolutions()
	get := func(name string, jobs int) float64 {
		for _, s := range sols {
			if s.name == name {
				return runYCSB(opt, s.mk, ycsb.WorkloadA, jobs)
			}
		}
		t.Fatalf("no solution %q", name)
		return 0
	}
	nv1, pt1 := get("NVMetro", 1), get("Passthrough", 1)
	t.Logf("YCSB A j1: NVMetro %.1f vs Passthrough %.1f kOps/s", nv1, pt1)
	if nv1 < pt1*0.75 {
		t.Errorf("1-job YCSB should show little variation (NVMetro %.1f vs PT %.1f)", nv1, pt1)
	}
	nv4, pt4 := get("NVMetro", 4), get("Passthrough", 4)
	t.Logf("YCSB A j4: NVMetro %.1f vs Passthrough %.1f kOps/s", nv4, pt4)
	if nv4 < pt4*0.85 {
		t.Errorf("4-job YCSB: NVMetro (%.1f) should stay within ~15%% of passthrough (%.1f)", nv4, pt4)
	}
	if nv4 < nv1*1.2 {
		t.Errorf("4 jobs (%.1f) should outrun 1 job (%.1f)", nv4, nv1)
	}
}

func TestShapeFig5Scalability(t *testing.T) {
	warm, dur := opt.windows()
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 32, Warmup: warm, Duration: dur}
	one := runFioScaled(opt, 1, cfg).KIOPS()
	four := runFioScaled(opt, 4, cfg).KIOPS()
	eight := runFioScaled(opt, 8, cfg).KIOPS()
	t.Logf("fig5 512B RR qd32: 1 VM %.1f, 4 VMs %.1f, 8 VMs %.1f kIOPS", one, four, eight)
	if four < one*1.5 || eight < four*0.95 {
		t.Errorf("throughput must grow with VM density: %v %v %v", one, four, eight)
	}
}

func TestShapeCPUOrdering(t *testing.T) {
	warm, dur := opt.windows()
	cfg := fio.Config{Mode: fio.RandRead, BlockSize: 512, QD: 1, Warmup: warm, Duration: dur}
	cpuOf := map[string]float64{}
	for _, s := range basicSolutions() {
		r := runFio(opt, s.mk, cfg, 1)
		cpuOf[s.name] = r.CPUCores
	}
	t.Logf("QD1 CPU: %v", cpuOf)
	// Fig. 11: passthrough lowest; SPDK highest (spinning reactors).
	for name, c := range cpuOf {
		if name == "Passthrough" {
			continue
		}
		if c <= cpuOf["Passthrough"] {
			t.Errorf("%s CPU (%.2f) should exceed passthrough (%.2f)", name, c, cpuOf["Passthrough"])
		}
	}
	if cpuOf["SPDK"] <= cpuOf["NVMetro"] {
		t.Errorf("SPDK (%.2f) should burn the most CPU (NVMetro %.2f)", cpuOf["SPDK"], cpuOf["NVMetro"])
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fault", "resync", "cache", "qos", "chaos", "scrub", "bootstorm", "scale"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(List()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(List()), len(want))
	}
}

// TestExperimentRegistryLookup: the registry holds at least the paper's
// thirteen artifacts (Tables I-II, Figures 3-13), an unknown id is not
// found, and table1 renders.
func TestExperimentRegistryLookup(t *testing.T) {
	if n := len(List()); n < 13 {
		t.Fatalf("%d experiments, want at least the paper's 13", n)
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown experiment found")
	}
	e, ok := Get("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	var sb strings.Builder
	for _, tab := range e.Run(Options{Quick: true, Seed: 1}) {
		tab.Fprint(&sb)
	}
	if !strings.Contains(sb.String(), "Classifier") {
		t.Fatalf("table1 output missing:\n%s", sb.String())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Unit: "u", Cols: []string{"a", "b"}}
	tab.add("row1", 1.5, 2.5)
	if got := tab.Cell("row1", "b"); got != 2.5 {
		t.Fatalf("cell %v", got)
	}
	if got := tab.Cell("row1", "nope"); got != -1 {
		t.Fatalf("missing col %v", got)
	}
	csv := tab.CSV()
	if csv != "config,a,b\nrow1,1.500,2.500\n" {
		t.Fatalf("csv %q", csv)
	}
}

// Cell returns a named cell (for assertions), or NaN-like -1 if missing.
func (t *Table) Cell(rowLabel, col string) float64 {
	ci := -1
	for i, c := range t.Cols {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return -1
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Cells) {
			return r.Cells[ci]
		}
	}
	return -1
}
