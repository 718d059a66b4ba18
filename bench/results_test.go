package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func TestResultsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	m := machine{NProc: 2, GOMAXPROCS: 2, CPU: "test cpu", GoVersion: "go1.24", Commit: "abc"}
	first := []runResult{{
		Workload: "gmh-longseq", Seed: 3, Seconds: 15, Scale: "full", Correct: true, Attempted: 40,
		Metrics: map[string]Metric{
			"draws_per_s": {Value: 6943.417263891, Unit: "1/s", N: 4, Q1: 6702.9, Q3: 7167.33},
			"setup_s":     {Value: 0.0742671, Unit: "s", N: 5, Q1: 0.07, Q3: 0.08},
		},
	}}
	second := []runResult{{
		Workload: "service-mix", Seed: 3, Trace: true, Scale: "full", Attempted: 9, Failed: 1,
		Failures: []string{"x: submit answered 429, want 202"},
		Metrics:  map[string]Metric{"job_latency_p90_s": {Value: 1.25, Unit: "s", N: 120, Pct: 90}},
	}}
	if err := appendResults(path, m, first); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(path, machine{NProc: 99}, second); err != nil {
		t.Fatal(err)
	}
	rf, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Machine != m {
		t.Errorf("machine %+v, want the first writer's %+v", rf.Machine, m)
	}
	if want := append(first, second...); !reflect.DeepEqual(rf.Runs, want) {
		t.Errorf("runs after round trip:\n%+v\nwant\n%+v", rf.Runs, want)
	}
}

func TestSummaryLineHoldsDeclaredMetrics(t *testing.T) {
	bound := 0.1
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "draws_per_s", Unit: "1/s", Better: "higher", Bound: &bound}},
		PerLayer: []metricSpec{{Name: "core.mle_s", Unit: "s", Better: "lower"}},
	}
	res := runResult{Workload: "w", Correct: true, Attempted: 3, Metrics: map[string]Metric{
		"draws_per_s": {Value: 1.5, Unit: "1/s", N: 3}, "estimate_s": {Value: 2, Unit: "s"},
	}}
	checkDeclared(&res, spec)
	var buf bytes.Buffer
	if err := printSummary(&buf, []runResult{res}, spec, false, true); err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"draws_per_s":{"value":1.5,"unit":"1/s"}}}` + "\n"
	if buf.String() != want {
		t.Errorf("summary line %q, want %q", buf.String(), want)
	}
	traced := runResult{Workload: "w", Trace: true, Correct: true, Metrics: map[string]Metric{}}
	if checkDeclared(&traced, spec); traced.Correct || traced.Failed != 1 {
		t.Errorf("run missing a declared per-layer metric still correct: %+v", traced)
	}
}
