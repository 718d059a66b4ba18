package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseSnapshotBench7 pins the parser against the real committed
// trajectory: BENCH_7.json at the repository root must load, carry the
// schema, and expose the seqlen sweep the CI gate compares against.
func TestParseSnapshotBench7(t *testing.T) {
	snap, err := ParseSnapshot(filepath.Join("..", "..", "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema %q, want %q", snap.Schema, SnapshotSchema)
	}
	if snap.PR != 7 {
		t.Errorf("PR %d, want 7", snap.PR)
	}
	if snap.File != "BENCH_7.json" {
		t.Errorf("file %q", snap.File)
	}
	if snap.Scale != "quick" {
		t.Errorf("scale %q, want quick", snap.Scale)
	}
	pts := snap.Speedups["seqlen"]
	if len(pts) == 0 {
		t.Fatal("no seqlen speedup points")
	}
	for _, p := range pts {
		if p.Param <= 0 || p.Speedup <= 0 || p.SerialSec <= 0 || p.ParallelSec <= 0 {
			t.Errorf("implausible point %+v", p)
		}
	}
}

// TestSnapshotKernelTier checks that the kernel tier round-trips through
// Write and ParseSnapshot, and that a snapshot written before the field
// existed (BENCH_7.json) still parses, with the tier empty.
func TestSnapshotKernelTier(t *testing.T) {
	old, err := ParseSnapshot(filepath.Join("..", "..", "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if old.KernelTier != "" {
		t.Errorf("BENCH_7.json kernel tier %q, want empty", old.KernelTier)
	}
	dir := t.TempDir()
	writeSnapshot(t, dir, "BENCH_3.json", &BenchSnapshot{KernelTier: "avx512"})
	got, err := ParseSnapshot(filepath.Join(dir, "BENCH_3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.KernelTier != "avx512" {
		t.Errorf("kernel tier %q after a round trip, want avx512", got.KernelTier)
	}
}

func writeSnapshot(t *testing.T, dir, name string, snap *BenchSnapshot) {
	t.Helper()
	snap.Schema = SnapshotSchema
	if err := snap.Write(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSnapshotsNumericOrder(t *testing.T) {
	dir := t.TempDir()
	mk := func(speedup float64) *BenchSnapshot {
		return &BenchSnapshot{
			Scale:    "quick",
			Speedups: map[string][]SpeedupPoint{"seqlen": {{Param: 200, Speedup: speedup}}},
		}
	}
	writeSnapshot(t, dir, "BENCH_10.json", mk(10))
	writeSnapshot(t, dir, "BENCH_3.json", mk(3))
	writeSnapshot(t, dir, "BENCH_7.json", mk(7))
	// Non-snapshot files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	snaps, err := LoadSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	var prs []int
	for _, s := range snaps {
		prs = append(prs, s.PR)
	}
	if len(prs) != 3 || prs[0] != 3 || prs[1] != 7 || prs[2] != 10 {
		t.Fatalf("PR order %v, want [3 7 10] (numeric, not lexical)", prs)
	}
}

func TestLoadSnapshotsRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"),
		[]byte(`{"schema": "mpcgs-paperbench/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshots(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("err = %v, want schema rejection", err)
	}
}

func TestCompareSnapshot(t *testing.T) {
	latest := &BenchSnapshot{
		Speedups: map[string][]SpeedupPoint{
			"seqlen": {{Param: 200, Speedup: 6.0}, {Param: 400, Speedup: 8.0}},
		},
	}

	// Healthy: within the floor.
	measured := map[string][]SpeedupPoint{
		"seqlen": {{Param: 200, Speedup: 5.0}, {Param: 400, Speedup: 7.0}},
		// Points the snapshot does not cover are skipped, not violations.
		"samples": {{Param: 1000, Speedup: 1.0}},
	}
	checked, violations := CompareSnapshot(measured, latest, 0.7)
	if checked != 2 || len(violations) != 0 {
		t.Fatalf("healthy: checked=%d violations=%v", checked, violations)
	}

	// Regressed: 30%+ drop on one point.
	measured["seqlen"] = []SpeedupPoint{{Param: 200, Speedup: 2.0}, {Param: 400, Speedup: 7.9}}
	checked, violations = CompareSnapshot(measured, latest, 0.7)
	if checked != 2 || len(violations) != 1 {
		t.Fatalf("regressed: checked=%d violations=%v", checked, violations)
	}
	v := violations[0]
	if v.Experiment != "seqlen" || v.Param != 200 || v.Committed != 6.0 {
		t.Errorf("violation %+v", v)
	}
	if !strings.Contains(v.String(), "below floor") {
		t.Errorf("violation string %q", v.String())
	}

	// Vacuous: nothing overlaps. The caller must fail on checked == 0.
	checked, violations = CompareSnapshot(map[string][]SpeedupPoint{
		"curve": {{Param: 1, Speedup: 1}},
	}, latest, 0.7)
	if checked != 0 || len(violations) != 0 {
		t.Fatalf("vacuous: checked=%d violations=%v", checked, violations)
	}

	// Committed data: the four sweeps CI re-measures, checked against
	// BENCH_10.json itself, cover 17 points and pass; each point planted
	// at 0.69× its committed speedup (a 31% slowdown) fails alone.
	bench10, err := ParseSnapshot(filepath.Join("..", "..", "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	sweeps := func() map[string][]SpeedupPoint {
		m := map[string][]SpeedupPoint{}
		for _, exp := range []string{"samples", "sequences", "seqlen", "gmhround"} {
			m[exp] = append([]SpeedupPoint(nil), bench10.Speedups[exp]...)
		}
		return m
	}
	checked, violations = CompareSnapshot(sweeps(), bench10, 0.7)
	if checked != 17 || len(violations) != 0 {
		t.Fatalf("BENCH_10 against itself: checked=%d violations=%v, want 17 and none", checked, violations)
	}
	for exp, pts := range sweeps() {
		for i, p := range pts {
			m := sweeps()
			m[exp][i].Speedup = p.Speedup * 0.69
			_, violations = CompareSnapshot(m, bench10, 0.7)
			if len(violations) != 1 || violations[0].Experiment != exp || violations[0].Param != p.Param {
				t.Errorf("%s@%d planted at 0.69×: violations %v, want exactly that point", exp, p.Param, violations)
			}
		}
	}
}

// TestCheckSpeedupFloor pins the speedup floor itself: a point fails
// below committed × factor, points without a committed speedup are
// skipped, and the reported floor is exactly committed × factor.
func TestCheckSpeedupFloor(t *testing.T) {
	latest := &BenchSnapshot{
		Speedups: map[string][]SpeedupPoint{
			"samples": {{Param: 2000, Speedup: 5.0}, {Param: 3000, Speedup: 5.5}},
			"seqlen":  {{Param: 200, Speedup: 4.0}},
		},
	}
	measured := map[string][]SpeedupPoint{
		"samples": {
			{Param: 2000, Speedup: 3.6}, // above floor 3.5: fine
			{Param: 3000, Speedup: 3.5}, // below floor 3.85: violation
			{Param: 9999, Speedup: 0.1}, // no committed speedup: ignored
		},
		"seqlen": {
			{Param: 200, Speedup: 4.2},
		},
	}
	checked, violations := CompareSnapshot(measured, latest, 0.7)
	if checked != 3 {
		t.Errorf("checked %d points, want 3 (the uncommitted point is skipped)", checked)
	}
	if len(violations) != 1 {
		t.Fatalf("got %d violations (%v), want 1", len(violations), violations)
	}
	v := violations[0]
	if v.Experiment != "samples" || v.Param != 3000 || v.Fresh != 3.5 {
		t.Errorf("unexpected violation %+v", v)
	}
	if wantFloor := v.Committed * 0.7; v.Floor != wantFloor {
		t.Errorf("floor = %v, want %v", v.Floor, wantFloor)
	}
	if got := v.String(); !strings.Contains(got, "samples param 3000") {
		t.Errorf("violation string %q", got)
	}

	if _, extra := CompareSnapshot(measured, latest, 0.1); len(extra) != 0 {
		t.Errorf("factor 0.1 should pass everything, got %v", extra)
	}
}

func TestFormatTrajectory(t *testing.T) {
	snaps := []*BenchSnapshot{
		{PR: 3, Speedups: map[string][]SpeedupPoint{"seqlen": {{Param: 200, Speedup: 4.0}}}},
		{PR: 7, Speedups: map[string][]SpeedupPoint{"seqlen": {{Param: 200, Speedup: 5.7}, {Param: 400, Speedup: 7.4}}}},
	}
	var buf bytes.Buffer
	FormatTrajectory(&buf, snaps)
	out := buf.String()
	for _, want := range []string{"trajectory: seqlen", "PR3", "PR7", "5.70", "7.40", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("trajectory output missing %q:\n%s", want, out)
		}
	}
}
