package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload builds the benchmark and runs every workload at
// the tiny scale, untraced and traced, requiring every metric
// BENCHMARK.json declares and no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, trace := range []bool{false, true} {
		args := []string{"-scale", "tiny", "-seconds", "1", "-seed", "3", "-out", filepath.Join(dir, "out")}
		if trace {
			args = append(args, "-trace")
		}
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("trace=%v: %v\n%s\n%s", trace, err, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace=%v: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v failed=%d of %d\n%s", trace, res.Correct, res.Failed, res.Attempted, stdout.String())
		}
		for _, w := range spec.Workloads {
			for _, d := range spec.metricSpecs(trace) {
				m, ok := res.Metrics[w.Name+"/"+d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("trace=%v: %s lacks metric %s (%s)", trace, w.Name, d.Name, d.Unit)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "spans.json")); err != nil {
		t.Errorf("traced run wrote no spans.json: %v", err)
	}

	// The workload-specific end-to-end metrics go to the results file.
	rf, err := readResults(filepath.Join(dir, "out", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"gmh-longseq":     {"estimate_s", "ess_per_s", "scaling_eff", "peak_rss_mb"},
		"gmh-manysamples": {"estimate_s", "ess_per_s", "scaling_eff", "peak_rss_mb"},
		"heated-mc3":      {"estimate_s", "ess_per_s", "scaling_eff", "peak_rss_mb"},
		"service-mix":     {"job_latency_p50_s", "job_latency_p90_s", "restart_s", "peak_rss_mb"},
	}
	for _, run := range rf.Runs {
		if run.Trace {
			continue
		}
		for _, name := range want[run.Workload] {
			if _, ok := run.Metrics[name]; !ok {
				t.Errorf("%s: results file lacks %s", run.Workload, name)
			}
		}
	}
}
