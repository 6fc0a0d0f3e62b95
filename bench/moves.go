package main

import "strings"

// moves is the prediction written down before measuring: which end-to-end
// metric, on which workload, a change to a per-layer metric should move.
// Pairings not named predict no change. A key is a metric name or the prefix
// shared by a layer's metrics; the longest matching key decides. The traced
// run prints the prediction beside each per-layer metric, and bench_test.go
// checks that every declared per-layer metric has one. (BENCHMARK.json's
// per_layer entries may only carry name, unit and better.)
var moves = []struct{ key, to string }{
	{"model.", "no host metric; a simulator-speed change leaves it identical"},
	{"runtime.", "cpu_ns_per_io, wall_ns_per_io on uif_mix, fast_sat; peak_rss_mb on uif_mix, fleet_boot"},
	{"sim.", "wall_ns_per_io on fast_qd1, a little on the rest"},
	{"sim.close_ms", "no end-to-end metric (teardown)"},
	{"core.", "wall_ns_per_io on fast_sat (per command), fast_qd1 (poll loop)"},
	{"core.drain_ms", "no end-to-end metric (teardown)"},
	{"ebpf.", "setup_s on fleet_boot"},
	{"ebpf.run_", "wall_ns_per_io on fast_sat, uif_mix; none on fleet_boot (promoted)"},
	{"nvme.", "wall_ns_per_io on fast_sat"},
	{"guestmem.", "wall_ns_per_io on fast_sat and uif_mix"},
	{"device.", "wall_ns_per_io on fast_sat and uif_mix"},
	{"ring.", "wall_ns_per_io on fleet_boot only"},
	{"qos.", "wall_ns_per_io on fleet_boot only"},
	{"cow.", "wall_ns_per_io and peak_rss_mb on fleet_boot"},
	{"cow.clone_us", "setup_s on fleet_boot"},
	{"cow.golden_image_ms", "setup_s on fleet_boot"},
	{"cache.", "wall_ns_per_io on fleet_boot and uif_mix"},
	{"integrity.", "wall_ns_per_io and peak_rss_mb on fleet_boot"},
	{"xts.", "wall_ns_per_io on uif_mix"},
	{"nvmeof.", "wall_ns_per_io on uif_mix"},
	{"metrics.", "wall_ns_per_io on every workload"},
	{"attr.", "wall_ns_per_io on its own workload (attr.* sum to it)"},
	{"stack.", "setup_s, most on fleet_boot (256 VMs)"},
	{"fio.warmup_s", "setup_s on every workload"},
	{"measure.", "none: steadiness inside this run"},
	{"trace.", "none: the cost of tracing"},
}

// movesOf returns the prediction for a per-layer metric, "" for any other
// name.
func movesOf(name string) string {
	best := -1
	for i, m := range moves {
		if strings.HasPrefix(name, m.key) && (best < 0 || len(m.key) > len(moves[best].key)) {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return moves[best].to
}
