package nvmetro_test

// One testing.B benchmark per paper artifact (Table I/II, Figures 3-13),
// driving the same harness as cmd/nvmetro-bench in quick mode. b.N controls
// repetition; each iteration regenerates the artifact from scratch. Run
//
//	go test -bench=. -benchmem
//
// to exercise every experiment, or -bench=BenchmarkFig7 for one.

import (
	"testing"

	"nvmetro"
	"nvmetro/internal/core"
	"nvmetro/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	// A fixed seed keeps iterations i>0 hitting the harness's in-process
	// result cache, so expensive grids are computed once per `go test`
	// invocation regardless of b.N.
	for i := 0; i < b.N; i++ {
		tables := e.Run(harness.Options{Quick: true, Seed: 1})
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("experiment %s produced no data", id)
		}
	}
}

func BenchmarkTable1LoC(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFig3Throughput(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4Latency(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5Scalability(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6YCSB(b *testing.B)             { benchExperiment(b, "fig6") }
func BenchmarkFig7Encryption(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8EncryptionYCSB(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9Replication(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10ReplicationYCSB(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11CPUBasic(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12CPUEncryption(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13CPUReplication(b *testing.B)  { benchExperiment(b, "fig13") }

// Ablation benches: design choices DESIGN.md calls out.

// BenchmarkAblationFastPathLatency measures one NVMetro fast-path request
// end to end (guest submit -> classifier -> device -> completion), the
// number the router's per-request costs sum to.
func BenchmarkAblationFastPathLatency(b *testing.B) {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()
	guest := sys.NewVM(1, 32<<20)
	disk, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{})
	if err != nil {
		b.Fatal(err)
	}
	res := sys.RunFIO(nvmetro.FIOConfig{
		Mode: nvmetro.RandRead, BlockSize: 512, QD: 1,
		Warmup: 1 * nvmetro.Millisecond, Duration: nvmetro.Duration(b.N) * 100 * nvmetro.Microsecond,
	}, disk.Targets(1))
	b.ReportMetric(float64(res.Lat.Median())/1e3, "virt-us/op")
	b.ReportMetric(res.KIOPS(), "virt-kIOPS")
}

// BenchmarkAblationSharedVsPerVMWorker compares router worker sharing
// (Fig. 5's configuration) against per-VM workers at 4 VMs.
func BenchmarkAblationSharedVsPerVMWorker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, _ := harness.Get("fig5")
		tabs := e.Run(harness.Options{Quick: true, Seed: 1})
		if len(tabs[0].Rows) == 0 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkExperimentListing keeps the registry itself cheap.
func BenchmarkExperimentListing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(nvmetro.Experiments()) < 13 {
			b.Fatal("missing experiments")
		}
	}
}

// BenchmarkAblationInterpretedVsNativeClassifier quantifies the cost of
// running policies in the sandboxed eBPF interpreter versus a compiled-in
// classifier (the `repro_why` concern: fast-path interpretation overhead).
func BenchmarkAblationInterpretedVsNativeClassifier(b *testing.B) {
	run := func(native bool) float64 {
		sys := nvmetro.NewSystem(nvmetro.Defaults())
		defer sys.Close()
		guest := sys.NewVM(2, 64<<20)
		disk, err := sys.Attach(guest, sys.WholeDisk(), nvmetro.Spec{})
		if err != nil {
			b.Fatal(err)
		}
		if native {
			disk.Ctrl.SetNativeClassifier(func(ctx []byte) uint64 {
				return core.ActSendHQ | core.ActWillCompleteHQ
			})
		}
		res := sys.RunFIO(nvmetro.FIOConfig{
			Mode: nvmetro.RandRead, BlockSize: 512, QD: 128,
			Warmup: nvmetro.Millisecond, Duration: 8 * nvmetro.Millisecond,
		}, disk.Targets(2))
		return res.KIOPS()
	}
	var interp, native float64
	for i := 0; i < b.N; i++ {
		interp = run(false)
		native = run(true)
	}
	b.ReportMetric(interp, "interp-kIOPS")
	b.ReportMetric(native, "native-kIOPS")
}
