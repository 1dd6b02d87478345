package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestSmokeAgainstLiveServer runs every workload for a short traced phase
// against a freshly built quantiled child, and one untraced flat pass,
// checking that the answers are correct and that each result carries
// exactly the metrics BENCHMARK.json declares.
func TestSmokeAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds quantiled and drives it for several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "quantiled")
	build := exec.Command("go", "build", "-o", bin, "./cmd/quantiled")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building quantiled: %v\n%s", err, out)
	}
	base := config{
		seed: 7, seconds: 1.5, quantiled: bin, workdir: dir, setups: 1,
		// A short phase cannot hold 1000 queries or a steady trend; the
		// guards are tested on their own.
		minQueries: 1, maxLateMs: 1e9, maxTrend: 1e9,
	}
	check := func(cfg config, want []string) {
		t.Helper()
		res, err := runPass(cfg)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", cfg.workload, cfg.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", cfg.workload, cfg.trace, res.Correct, res.Attempted, res.Failed)
		}
		var got []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s (trace %v) metrics %v, want %v", cfg.workload, cfg.trace, got, want)
		}
	}
	for _, w := range bench.Workloads {
		cfg := base
		cfg.workload, cfg.trace = w.Name, true
		check(cfg, names(bench.PerLayer))
	}
	cfg := base
	cfg.workload, cfg.setups = "flat", 2
	check(cfg, names(bench.EndToEnd))
}
