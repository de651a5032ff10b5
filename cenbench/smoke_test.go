package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

// drives names, per workload, per-layer metrics that must be non-zero:
// the layers the workload exists to exercise.
var drives = map[string][]string{
	"study":          {"simnet.packets_per_op", "cenfuzz.ms_per_job", "ml.forest_ms", "tomography.crossval_ms"},
	"serve-open":     {"serve.exec_ms_p50", "serve.cache_hit_ratio", "scheduler.centrace_ms", "store.records_replayed"},
	"cluster-closed": {"cluster.leases_per_job", "cluster.fetch_ms_p50", "store.replay_ms"},
}

// TestSmoke runs every workload briefly, untraced and traced, through
// the built command, and checks that each prints every metric
// BENCHMARK.json names with its unit and fails no op; then that a
// corrupted reference digest is caught as a failure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cenbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) (result, error) {
		t.Helper()
		args = append([]string{"-seconds", "1", "-out", dir}, args...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last stdout line is not a result (%v)\nstderr:\n%s", args, err, stderr.String())
		}
		return res, runErr
	}

	for _, w := range spec.Workloads {
		for trace, defs := range map[string][]metricDef{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				res, err := run(t, "-workload", w.Name, "-trace", trace)
				if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed, exit %v", res.Correct, res.Failed, res.Attempted, err)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if trace == "1" {
					for _, name := range drives[w.Name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0 on %s", name, res.Metrics[name].Value, w.Name)
						}
					}
				}
			})
		}
		t.Run(w.Name+"/corrupt-reference", func(t *testing.T) {
			res, err := run(t, "-workload", w.Name, "-corrupt-ref")
			var exit *exec.ExitError
			if !errors.As(err, &exit) || res.Correct || res.Failed < 1 {
				t.Fatalf("corrupted reference: correct %v, %d failed, exit %v; want a reported failure", res.Correct, res.Failed, err)
			}
		})
	}
}
