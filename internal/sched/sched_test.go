package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
)

// testAlignment simulates a small dataset for scheduler tests.
func testAlignment(t testing.TB, nSeq, seqLen int, seed uint64) *phylip.Alignment {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return aln
}

// standalone runs one job alone through RunStandalone — the same
// one-pool-per-run pipeline the batch experiment's baseline uses — and
// fails the test on any error.
func standalone(t testing.TB, job Job, workers int) Result {
	t.Helper()
	res, err := RunStandalone(job, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireIdentical pins the batch contract: the batch-mode trace is
// bit-identical to the standalone run — same θ trajectory, same posterior
// sample set.
func requireIdentical(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: batch job failed: %v", label, got.Err)
	}
	if got.Theta != want.Theta {
		t.Fatalf("%s: batch theta %v != standalone %v", label, got.Theta, want.Theta)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history lengths %d vs %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("%s: EM iteration %d differs: %+v vs %+v", label, i, got.History[i], want.History[i])
		}
	}
	a, b := got.LastSet, want.LastSet
	if a.Len() != b.Len() {
		t.Fatalf("%s: sample set lengths %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Stats {
		if a.Stats[i] != b.Stats[i] || a.LogLik[i] != b.LogLik[i] {
			t.Fatalf("%s: draw %d differs (stat %v vs %v, logL %v vs %v)",
				label, i, a.Stats[i], b.Stats[i], a.LogLik[i], b.LogLik[i])
		}
	}
}

func quickJob(name string, aln *phylip.Alignment, sampler string, seed uint64) Job {
	return Job{
		Name:         name,
		Alignment:    aln,
		InitialTheta: 1.0,
		Sampler:      sampler,
		Proposals:    3,
		Chains:       2,
		Burnin:       30,
		Samples:      200,
		EMIterations: 2,
		Seed:         seed,
	}
}

func TestBatchSingleJob(t *testing.T) {
	aln := testAlignment(t, 6, 60, 801)
	job := quickJob("solo", aln, "gmh", 802)
	want := standalone(t, job, 2)

	pool := device.NewPool(2)
	defer pool.Close()
	results, err := RunBatch(context.Background(), pool, []Job{job}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	requireIdentical(t, "solo", want, results[0])
	if results[0].Steps == 0 {
		t.Error("Steps = 0, want > 0")
	}
}

// TestBatchMatchesStandaloneAcrossSamplers is the fixed-seed equivalence
// test of the acceptance criteria: jobs with different samplers, data and
// seeds run batched on one shared pool, and every trace must equal its
// standalone run exactly.
func TestBatchMatchesStandaloneAcrossSamplers(t *testing.T) {
	const workers = 2
	jobs := []Job{
		quickJob("gmh-a", testAlignment(t, 6, 60, 811), "gmh", 821),
		quickJob("mh-b", testAlignment(t, 7, 80, 812), "mh", 822),
		quickJob("heated-c", testAlignment(t, 6, 50, 813), "heated", 823),
		quickJob("multichain-d", testAlignment(t, 6, 40, 814), "multichain", 824),
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		want[i] = standalone(t, j, workers)
	}

	pool := device.NewPool(workers)
	defer pool.Close()
	results, err := RunBatch(context.Background(), pool, jobs, Options{Drivers: 3, Quantum: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		requireIdentical(t, jobs[i].Name, want[i], results[i])
	}
}

func TestBatchMoreJobsThanPoolWorkers(t *testing.T) {
	// 6 jobs over a 2-worker pool with 2 drivers: jobs outnumber both the
	// workers and the drivers, so completion requires genuine
	// time-slicing.
	const workers = 2
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, quickJob(fmt.Sprintf("j%d", i),
			testAlignment(t, 6, 40, 831+uint64(i)), "gmh", 841+uint64(i)))
	}
	pool := device.NewPool(workers)
	defer pool.Close()
	results, err := RunBatch(context.Background(), pool, jobs, Options{Drivers: 2, Quantum: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Theta <= 0 {
			t.Errorf("job %d: non-positive estimate %v", i, r.Theta)
		}
	}
	// Spot-check determinism under oversubscription.
	requireIdentical(t, "j3", standalone(t, jobs[3], workers), results[3])
}

func TestBatchIsolatesPathologicalJob(t *testing.T) {
	// An MH job with a driving θ absurdly below the data's scale: its
	// proposals land in numerically infeasible regions and the run fails.
	// The failure must stay in that job's Result; the healthy jobs
	// complete untouched.
	bad := quickJob("pathological", testAlignment(t, 6, 40, 851), "mh", 852)
	bad.InitialTheta = 1e-12
	jobs := []Job{
		quickJob("healthy-a", testAlignment(t, 6, 60, 853), "gmh", 854),
		bad,
		quickJob("healthy-b", testAlignment(t, 6, 50, 855), "mh", 856),
	}
	pool := device.NewPool(2)
	defer pool.Close()
	results, err := RunBatch(context.Background(), pool, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil {
		t.Error("pathological job reported no error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("healthy job %q failed alongside the pathological one: %v", results[i].Name, results[i].Err)
		}
		if results[i].Theta <= 0 {
			t.Errorf("healthy job %q: no estimate", results[i].Name)
		}
	}
}

func TestBatchInvalidJobFailsAtAdmission(t *testing.T) {
	jobs := []Job{
		{Name: "no-alignment", InitialTheta: 1.0},
		quickJob("ok", testAlignment(t, 6, 40, 861), "gmh", 862),
	}
	results, err := RunBatch(context.Background(), nil, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("job without alignment admitted")
	}
	if results[1].Err != nil {
		t.Errorf("valid job failed: %v", results[1].Err)
	}
}

func TestBatchCancellation(t *testing.T) {
	// Big jobs, a context cancelled almost immediately: RunBatch must
	// return promptly with ctx's error, and unfinished jobs must record
	// it too.
	var jobs []Job
	for i := 0; i < 4; i++ {
		j := quickJob(fmt.Sprintf("big%d", i), testAlignment(t, 8, 120, 871+uint64(i)), "gmh", 881+uint64(i))
		j.Samples = 200000
		j.EMIterations = 10
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := device.NewPool(2)
	defer pool.Close()

	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = RunBatch(ctx, pool, jobs, Options{Drivers: 2, Quantum: 4})
	}()
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch error = %v, want context.Canceled", err)
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job recorded the cancellation")
	}
}

func TestBatchOnClosedPoolReturnsErrClosed(t *testing.T) {
	pool := device.NewPool(2)
	pool.Close()
	_, err := RunBatch(context.Background(), pool, []Job{
		quickJob("late", testAlignment(t, 6, 40, 891), "gmh", 892),
	}, Options{})
	if !errors.Is(err, device.ErrClosed) {
		t.Fatalf("RunBatch on closed pool = %v, want ErrClosed", err)
	}
}

func TestLoadManifest(t *testing.T) {
	dir := t.TempDir()
	writePhy := func(name string, seed uint64) {
		aln := testAlignment(t, 6, 40, seed)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := phylip.Write(f, aln); err != nil {
			t.Fatal(err)
		}
	}
	writePhy("popA.phy", 901)
	writePhy("popB.phy", 902)
	manifest := `{
  "defaults": {"sampler": "mh", "theta": 1.0, "burnin": 50, "samples": 300, "em_iterations": 1, "seed": 5},
  "jobs": [
    {"phylip": "popA.phy"},
    {"name": "b", "phylip": "popB.phy", "theta": 0.5, "sampler": "gmh", "proposals": 2, "seed": 9}
  ]
}`
	path := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jobs))
	}
	a := jobs[0]
	if a.Name != "popA" || a.Sampler != "mh" || a.InitialTheta != 1.0 || a.Burnin != 50 ||
		a.Samples != 300 || a.EMIterations != 1 || a.Seed != 5 {
		t.Errorf("job 0 defaults not applied: %+v", a)
	}
	if a.Alignment == nil || a.Alignment.NSeq() != 6 {
		t.Error("job 0 alignment not loaded")
	}
	b := jobs[1]
	if b.Name != "b" || b.Sampler != "gmh" || b.InitialTheta != 0.5 || b.Proposals != 2 || b.Seed != 9 {
		t.Errorf("job 1 overrides not applied: %+v", b)
	}

	// The loaded batch must actually run.
	results, err := RunBatch(context.Background(), nil, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("manifest job %q failed: %v", r.Name, r.Err)
		}
	}
}

// TestLoadManifestTemperingKnobs: the heated tempering knobs load, merge
// from defaults (including a per-job false overriding a defaults-level
// adapt_ladder true), and reach the Job spec.
func TestLoadManifestTemperingKnobs(t *testing.T) {
	dir := t.TempDir()
	aln := testAlignment(t, 6, 40, 911)
	f, err := os.Create(filepath.Join(dir, "pop.phy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := phylip.Write(f, aln); err != nil {
		t.Fatal(err)
	}
	f.Close()
	manifest := `{
  "defaults": {"sampler": "heated", "theta": 1.0, "burnin": 30, "samples": 100, "em_iterations": 1,
               "chains": 3, "max_temp": 16, "adapt_ladder": true, "swap_window": 16},
  "jobs": [
    {"name": "inherits", "phylip": "pop.phy", "seed": 21},
    {"name": "overrides", "phylip": "pop.phy", "seed": 22,
     "max_temp": 4, "swap_every": 2, "adapt_ladder": false, "swap_window": 8},
    {"name": "control", "phylip": "pop.phy", "seed": 23, "sampler": "mh"}
  ]
}`
	path := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := jobs[0], jobs[1], jobs[2]
	if a.MaxTemp != 16 || a.SwapEvery != 0 || !a.AdaptLadder || a.SwapWindow != 16 {
		t.Errorf("defaults not inherited: %+v", a)
	}
	if b.MaxTemp != 4 || b.SwapEvery != 2 || b.AdaptLadder || b.SwapWindow != 8 {
		t.Errorf("overrides not applied: %+v", b)
	}
	// A non-heated control job in a manifest with tempering defaults
	// must load cleanly, with the ladder knobs not inherited.
	if c.Sampler != "mh" || c.MaxTemp != 0 || c.AdaptLadder || c.SwapWindow != 0 {
		t.Errorf("tempering defaults leaked into the non-heated job: %+v", c)
	}
	// And the loaded adaptive batch actually runs.
	results, err := RunBatch(context.Background(), nil, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("manifest job %q failed: %v", r.Name, r.Err)
		}
	}
	for _, r := range results[:2] {
		if r.LastRun == nil || len(r.LastRun.PairSwapAttempts) != 2 {
			t.Errorf("manifest job %q missing per-pair swap diagnostics", r.Name)
		}
	}
}

func TestLoadManifestErrors(t *testing.T) {
	dir := t.TempDir()
	// A loadable alignment, so the trailing-data rows fail for their
	// trailing data and nothing else.
	f, err := os.Create(filepath.Join(dir, "a.phy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := phylip.Write(f, testAlignment(t, 5, 40, 921)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	const valid = `{"jobs": [{"phylip": "a.phy", "theta": 1}]}`
	if err := os.WriteFile(filepath.Join(dir, "valid.json"), []byte(valid), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(filepath.Join(dir, "valid.json")); err != nil {
		t.Fatalf("valid manifest refused: %v", err)
	}
	// wantErr is a substring the error must carry; "" accepts any error.
	cases := map[string]struct{ content, wantErr string }{
		"empty.json":    {`{"jobs": []}`, ""},
		"nofile.json":   {`{"jobs": [{"name": "x", "theta": 1}]}`, ""},
		"unknown.json":  {`{"jobs": [{"phylip": "a.phy", "bogus": 1}]}`, ""},
		"badjson.json":  {`{"jobs": [`, ""},
		"trailing.json": {valid + ` {"jobs": garbage`, "after the JSON value"},
		"twice.json":    {valid + valid, "after the JSON value"},
		"junk.json":     {valid + "\n# comment\n", "after the JSON value"},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadManifest(path)
		if err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing manifest: expected error")
	}
}

// TestJobFromSpec: omitted pointers and zero counts leave the Job zero
// (for admission to default), and a float no JSON decode could have
// produced is an error, not a zero. The field-by-field mapping is
// pinned against journaled records in internal/serve.
func TestJobFromSpec(t *testing.T) {
	aln := testAlignment(t, 5, 40, 931)
	zero := 0
	got, err := JobFromSpec(ckpt.JobSpec{Name: "bare", Theta: "0x1p+00", Proposals: &zero}, aln)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Job{Name: "bare", Alignment: aln, InitialTheta: 1}); got != want {
		t.Errorf("bare spec mapped to %+v, want %+v", got, want)
	}
	if _, err := JobFromSpec(ckpt.JobSpec{Name: "bad", Theta: "many"}, aln); err == nil {
		t.Error("unparseable theta accepted")
	}
}
