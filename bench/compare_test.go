package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testBound = 0.10

func testSpec() *benchSpec {
	return &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "draws_per_s", Unit: "1/s", Better: "higher", Bound: &testBound},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: &testBound},
		},
		PerLayer: []metricSpec{{Name: "core.mle_s", Unit: "s", Better: "lower"}},
	}
}

// synthRuns makes one run per value of each metric, in order; a NaN
// value leaves the metric out of that run.
func synthRuns(workload string, trace bool, failed int, metrics map[string][]float64) []runResult {
	n := 0
	for _, vs := range metrics {
		n = max(n, len(vs))
	}
	runs := make([]runResult, n)
	for i := range runs {
		runs[i] = runResult{Workload: workload, Seed: 1, Trace: trace, Failed: failed, Correct: failed == 0, Metrics: map[string]Metric{}}
		for name, vs := range metrics {
			if i < len(vs) && !math.IsNaN(vs[i]) {
				runs[i].Metrics[name] = Metric{Value: vs[i]}
			}
		}
	}
	return runs
}

func withSeed(runs []runResult, seed uint64) []runResult {
	for i := range runs {
		runs[i].Seed = seed
	}
	return runs
}

func around(center float64, n int, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + jitter*float64(i%5-2)
	}
	return out
}

func verdicts(rows []compareRow) map[string]string {
	out := make(map[string]string)
	for _, r := range rows {
		out[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec()
	base := append(
		synthRuns("a", false, 0, map[string][]float64{
			"draws_per_s": around(100, 10, 0.5), // tight: IQR ~1.5
			"setup_s":     around(1, 10, 0.01),
		}),
		synthRuns("b", false, 0, map[string][]float64{
			"draws_per_s": around(100, 10, 10), // IQR ~30 > bound
			"setup_s":     around(1, 10, 0.01),
		})...)
	head := append(
		synthRuns("a", false, 0, map[string][]float64{
			"draws_per_s": around(110, 10, 0.5), // faster in every pair
			"setup_s":     around(1.2, 10, 0.01),
		}),
		synthRuns("b", false, 0, map[string][]float64{
			"draws_per_s": around(95, 10, 10),
			"setup_s":     around(1.05, 10, 0.01),
		})...)
	got := verdicts(compareRuns(base, head, spec))
	want := map[string]string{
		"a/draws_per_s": improved,
		"a/setup_s":     regressed, // 20% worse, bound 10%
		"b/draws_per_s": unresolved,
		"b/setup_s":     unchanged,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}
}

func TestCompareNeedsTenPairsAndNoExtraFailures(t *testing.T) {
	spec := testSpec()
	base := synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(100, 9, 0.5)})
	head := synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(120, 9, 0.5)})
	if v := verdicts(compareRuns(base, head, spec))["a/draws_per_s"]; v == improved {
		t.Errorf("9 pairs: %s; a gain needs at least %d pairs", v, minPairs)
	}
	base = synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(100, 10, 0.5)})
	head = synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(120, 10, 0.5)})
	head = append(head, synthRuns("a", false, 1, map[string][]float64{"draws_per_s": {500}})...)
	if v := verdicts(compareRuns(base, head, spec))["a/draws_per_s"]; v != unresolved {
		t.Errorf("head with more failed operations: %s, want %s", v, unresolved)
	}
}

func TestComparePairsWithinSeedsAndSkipsFailedAndMissing(t *testing.T) {
	spec := testSpec()
	nan := math.NaN()
	// Seed 1: the head is faster in every pair. Seed 2 runs at another
	// level and does not change; pooled with seed 1 it would hide the gain.
	base := append(
		synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(100, 11, 0.5)}),
		withSeed(synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(300, 10, 0.5)}), 2)...)
	head := append(
		// A failed run first and a run without the metric: neither may
		// shift the pairing.
		synthRuns("a", false, 1, map[string][]float64{"draws_per_s": {1}}),
		synthRuns("a", false, 0, map[string][]float64{"draws_per_s": append(around(110, 3, 0.5), append([]float64{nan}, around(110, 7, 0.5)...)...)})...)
	head = append(head, withSeed(synthRuns("a", false, 0, map[string][]float64{"draws_per_s": around(300, 10, 0.5)}), 2)...)
	base = append(base, synthRuns("a", false, 1, map[string][]float64{"draws_per_s": {1}})...)
	rows := compareRuns(base, head, spec)
	got := make(map[uint64]compareRow)
	for _, r := range rows {
		got[r.Seed] = r
	}
	if r := got[1]; r.Verdict != improved || r.Pairs != 10 || r.Wins != 10 {
		t.Errorf("seed 1: %s with %d pairs, %d won; want improved over 10 pairs, all won", r.Verdict, r.Pairs, r.Wins)
	}
	if r := got[2]; r.Verdict != unchanged || r.BaseMed != 300 {
		t.Errorf("seed 2: %s, base median %v; want unchanged at 300", r.Verdict, r.BaseMed)
	}
}

func TestCompareJudgesWorkloadSpecificMetrics(t *testing.T) {
	spec := testSpec()
	base := synthRuns("svc", false, 0, map[string][]float64{
		"restart_s":         around(0.050, 10, 0.0001),
		"job_latency_p50_s": around(1, 10, 0.001),
	})
	head := synthRuns("svc", false, 0, map[string][]float64{
		"restart_s":         around(0.060, 10, 0.0001), // 20% worse, but by 10 ms
		"job_latency_p50_s": around(1.2, 10, 0.001),    // 20% worse, bound 10%
	})
	got := verdicts(compareRuns(base, head, spec))
	if got["svc/restart_s"] != unchanged {
		t.Errorf("restart_s 10 ms worse: %s, want %s under the 20 ms floor", got["svc/restart_s"], unchanged)
	}
	if got["svc/job_latency_p50_s"] != regressed {
		t.Errorf("job_latency_p50_s 20%% worse: %s, want %s", got["svc/job_latency_p50_s"], regressed)
	}
}

func TestComparePerLayerUsesPairingRuleBothWays(t *testing.T) {
	spec := testSpec()
	base := synthRuns("a", true, 0, map[string][]float64{"core.mle_s": around(2, 10, 0.01)})
	worse := synthRuns("a", true, 0, map[string][]float64{"core.mle_s": around(3, 10, 0.01)})
	same := synthRuns("a", true, 0, map[string][]float64{"core.mle_s": around(2, 10, 0.01)})
	if v := verdicts(compareRuns(base, worse, spec))["a/core.mle_s"]; v != regressed {
		t.Errorf("per-layer loss in every pair: %s, want regressed", v)
	}
	if v := verdicts(compareRuns(base, same, spec))["a/core.mle_s"]; v != unchanged {
		t.Errorf("per-layer tie: %s, want unchanged", v)
	}
}

func TestCompareMainPrintsRatiosWithBase(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSONFile(spec, testSpec()); err != nil {
		t.Fatal(err)
	}
	m := machine{NProc: 2, CPU: "cpu"}
	base, head := filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json")
	if err := appendResults(base, m, synthRuns("a", false, 0, map[string][]float64{"setup_s": around(1, 10, 0.01)})); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(head, m, synthRuns("a", false, 0, map[string][]float64{"setup_s": around(1.5, 10, 0.01)})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"-base", base, "-head", head, "-spec", spec}, &out); code != 1 {
		t.Errorf("exit code %d with a bounded regression, want 1\n%s", code, out.String())
	}
	for _, s := range []string{"head/base = 1.5000", "base 1 s", "0 improved, 0 unchanged, 1 regressed, 0 unresolved"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("output lacks %q:\n%s", s, out.String())
		}
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
