package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared mirrors the parts of BENCHMARK.json the smoke test checks.
type declared struct {
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func sorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" ["+v+"]")
	}
	sort.Strings(out)
	return out
}

// sameSet fails unless got and want hold the same name → unit pairs.
func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	g, w := sorted(got), sorted(want)
	if len(g) != len(w) {
		t.Errorf("%s: emitted %d, BENCHMARK.json declares %d\nemitted:  %v\ndeclared: %v", what, len(g), len(w), g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json declares %q", what, g[i], w[i])
		}
	}
}

// TestSmoke runs every workload on 1/200 of its window, untraced and traced, with
// each probe called once, and checks that what the benchmark emits is what
// BENCHMARK.json declares, in both directions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the -seconds default is %v", decl.RunSeconds, defaultSeconds)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, main.go lists %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if endToEnd[i].name != m.Name || endToEnd[i].bound != m.Bound {
			t.Errorf("end-to-end metric %d: %s bound %v in BENCHMARK.json, %+v in main.go", i, m.Name, m.Bound, endToEnd[i])
		}
	}
	used := map[string]bool{}
	for _, m := range decl.PerLayer {
		wantLayer[m.Name] = m.Unit
		if movesOf(m.Name) == "" {
			t.Errorf("per-layer metric %s has no prediction in moves", m.Name)
		}
		for _, mv := range moves {
			if strings.HasPrefix(m.Name, mv.key) {
				used[mv.key] = true
			}
		}
	}
	for _, mv := range moves {
		if !used[mv.key] {
			t.Errorf("moves key %q matches no per-layer metric of BENCHMARK.json", mv.key)
		}
	}
	for _, m := range decl.EndToEnd {
		if movesOf(m.Name) != "" {
			t.Errorf("end-to-end metric %s has a per-layer prediction", m.Name)
		}
	}
	gotW, wantW := map[string]string{}, map[string]string{}
	for _, w := range workloads {
		gotW[w.name] = ""
	}
	for _, w := range decl.Workloads {
		wantW[w.Name] = ""
	}
	sameSet(t, "workloads", gotW, wantW)

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{Workload: w.name, Seed: 1, Seconds: defaultSeconds / 200.0 / children, T0: time.Now()}
			plain, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trace, cfg.T0 = true, time.Now()
			cfg.RefWallNS = plain.Metrics["wall_ns_per_io"].Value
			cfg.TraceFile = filepath.Join(t.TempDir(), "trace.json")
			traced, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest != traced.Digest {
				t.Errorf("model.digest: untraced %s, traced %s", plain.Digest, traced.Digest)
			}
			gotE2E, gotLayer := map[string]string{}, map[string]string{}
			for _, res := range []*result{plain, traced} {
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("attempted=%d failed=%d: %v", res.Attempted, res.Failed, res.Problems)
				}
				for n, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", n, m.Value)
					}
				}
			}
			for n, m := range traced.Metrics {
				if isEndToEnd(n) {
					gotE2E[n] = m.Unit
				} else {
					gotLayer[n] = m.Unit
				}
			}
			sameSet(t, "end-to-end metrics", gotE2E, wantE2E)
			sameSet(t, "per-layer metrics", gotLayer, wantLayer)

			var spans []span
			data, err := os.ReadFile(cfg.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			count := map[string]int{}
			for _, s := range spans {
				count[s.Name]++
				if s.EndNS < s.StartNS || s.Workload != w.name {
					t.Errorf("span %+v", s)
				}
			}
			for _, name := range []string{"setup", "stack.new_host", "fio.warmup", "measure", "teardown", "core.drain", "sim.close"} {
				if count[name] != 1 {
					t.Errorf("%d %q spans, want 1", count[name], name)
				}
			}
			if count["fio.slice"] != numSlices || count["vm.new"] == 0 || count["vm.new"] != count["stack.attach"] {
				t.Errorf("spans: %v", count)
			}
			for _, p := range probes {
				if count["probe."+p.name] != 1 {
					t.Errorf("%d probe.%s spans, want 1", count["probe."+p.name], p.name)
				}
			}
		})
	}
}
