package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
)

// ckptJobs builds one small job per sampler, the ensemble every
// kill/resume test drives.
func ckptJobs(t *testing.T) []Job {
	t.Helper()
	// The adaptive heated job uses a 3-rung ladder (2 rungs have no
	// interior temperature to adapt) and a small swap window so the
	// adaptation engages within the short burn-in — the adapted-ladder
	// kill/resume case of the checkpoint acceptance contract.
	adaptive := quickJob("adaptive-heated-job", testAlignment(t, 6, 60, 605), "heated", 615)
	adaptive.Chains = 3
	adaptive.AdaptLadder = true
	adaptive.MaxTemp = 32
	adaptive.SwapWindow = 8
	return []Job{
		quickJob("gmh-job", testAlignment(t, 6, 60, 601), "gmh", 611),
		quickJob("mh-job", testAlignment(t, 6, 60, 602), "mh", 612),
		quickJob("heated-job", testAlignment(t, 6, 60, 603), "heated", 613),
		quickJob("multichain-job", testAlignment(t, 6, 60, 604), "multichain", 614),
		adaptive,
	}
}

// runToCompletionWithResume drives a batch through as many
// kill/checkpoint/resume cycles as it takes, cancelling each attempt
// after delay, and returns the final results. Every attempt after the
// first resumes from the checkpoint directory.
func runToCompletionWithResume(t *testing.T, jobs []Job, dir string, delay time.Duration, quantum, every int) []Result {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			t.Fatal("batch did not complete within 200 kill/resume cycles")
		}
		opts := Options{
			Drivers:    2,
			Quantum:    quantum,
			Checkpoint: CheckpointOptions{Dir: dir, Every: every},
			Resume:     attempt > 0,
		}
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		pool := device.NewPool(2)
		results, err := RunBatch(ctx, pool, jobs, opts)
		cancel()
		pool.Close()
		if err == nil {
			return results
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		// Progressively longer attempts so the loop terminates even on a
		// very slow machine.
		delay += delay / 2
	}
}

// requireSameOutcome compares a kill/resume job against the
// uninterrupted reference. A job that was mid-flight at the last kill
// reruns to completion and carries its full trace — compared
// bit-for-bit; a job that finished in an earlier attempt is restored
// from the checkpoint without its sample set, so its θ trajectory is
// compared instead (each history entry pins four floats per iteration).
func requireSameOutcome(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.LastSet != nil {
		requireIdentical(t, label, want, got)
		return
	}
	if !got.Resumed {
		t.Fatalf("%s: job has neither a trace nor a restored result", label)
	}
	if got.Err != nil {
		t.Fatalf("%s: %v", label, got.Err)
	}
	if got.Theta != want.Theta {
		t.Fatalf("%s: restored theta %v != %v", label, got.Theta, want.Theta)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history lengths %d vs %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("%s: EM iteration %d differs: %+v vs %+v", label, i, got.History[i], want.History[i])
		}
	}
}

// TestBatchKillResumeBitIdentical is the batch-level acceptance test: a
// batch killed mid-flight at arbitrary points and resumed from its
// checkpoint finishes with every job's trace bit-identical to the
// uninterrupted batch, for all four samplers.
func TestBatchKillResumeBitIdentical(t *testing.T) {
	jobs := ckptJobs(t)

	// Uninterrupted reference.
	pool := device.NewPool(2)
	want, err := RunBatch(context.Background(), pool, jobs, Options{Drivers: 2, Quantum: 7})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	got := runToCompletionWithResume(t, jobs, dir, 30*time.Millisecond, 7, 40)
	for i := range want {
		requireSameOutcome(t, jobs[i].Name, want[i], got[i])
		if got[i].Steps != want[i].Steps {
			t.Errorf("%s: cumulative steps %d != uninterrupted %d", jobs[i].Name, got[i].Steps, want[i].Steps)
		}
	}
}

// TestBatchResumeSkipsFinishedJobs: jobs recorded as done in the
// checkpoint are not re-run — their result comes back immediately with
// Resumed set — while unfinished jobs still run.
func TestBatchResumeSkipsFinishedJobs(t *testing.T) {
	quick := quickJob("quick", testAlignment(t, 5, 40, 621), "mh", 622)
	slow := quickJob("slow", testAlignment(t, 6, 60, 623), "gmh", 624)
	slow.Samples = 2000
	jobs := []Job{quick, slow}
	dir := filepath.Join(t.TempDir(), "ckpt")

	// Run the batch to completion with checkpointing on.
	pool := device.NewPool(2)
	want, err := RunBatch(context.Background(), pool, jobs, Options{
		Checkpoint: CheckpointOptions{Dir: dir, Every: 50},
	})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Resume the finished batch: every job must come back from the file,
	// with no sampling work done.
	pool = device.NewPool(2)
	got, err := RunBatch(context.Background(), pool, jobs, Options{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("job %q: %v", r.Name, r.Err)
		}
		if !r.Resumed {
			t.Errorf("job %q was re-run instead of restored", r.Name)
		}
		if r.Theta != want[i].Theta {
			t.Errorf("job %q: restored theta %v != %v", r.Name, r.Theta, want[i].Theta)
		}
		if len(r.History) != len(want[i].History) {
			t.Fatalf("job %q: restored history length %d != %d", r.Name, len(r.History), len(want[i].History))
		}
		for k := range r.History {
			if r.History[k] != want[i].History[k] {
				t.Errorf("job %q: restored history entry %d differs", r.Name, k)
			}
		}
		if r.Busy != 0 {
			t.Errorf("job %q: restored job reports %v busy time", r.Name, r.Busy)
		}
	}
}

// TestBatchResumeRejectsChangedSpec: a manifest edited since the snapshot
// must not silently adopt the old chain state.
func TestBatchResumeRejectsChangedSpec(t *testing.T) {
	job := quickJob("drift", testAlignment(t, 6, 60, 631), "gmh", 632)
	dir := filepath.Join(t.TempDir(), "ckpt")
	pool := device.NewPool(2)
	if _, err := RunBatch(context.Background(), pool, []Job{job}, Options{
		Checkpoint: CheckpointOptions{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	pool.Close()

	changed := job
	changed.Seed++
	pool = device.NewPool(2)
	defer pool.Close()
	got, err := RunBatch(context.Background(), pool, []Job{changed}, Options{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err == nil || !strings.Contains(got[0].Err.Error(), "fingerprint mismatch") {
		t.Fatalf("changed spec not rejected: %v", got[0].Err)
	}
}

// TestBatchResumeRestoresFailedJobs: a job that failed before the kill is
// reported, not re-run.
func TestBatchResumeRestoresFailedJobs(t *testing.T) {
	bad := quickJob("pathological", testAlignment(t, 6, 60, 641), "mh", 642)
	bad.InitialTheta = 1e-12 // infeasible resimulation regions: MH dies
	dir := filepath.Join(t.TempDir(), "ckpt")
	pool := device.NewPool(2)
	first, err := RunBatch(context.Background(), pool, []Job{bad}, Options{
		Checkpoint: CheckpointOptions{Dir: dir},
	})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Err == nil {
		t.Fatal("pathological job did not fail")
	}
	pool = device.NewPool(2)
	defer pool.Close()
	got, err := RunBatch(context.Background(), pool, []Job{bad}, Options{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err == nil || !got[0].Resumed {
		t.Fatalf("failed job not restored from checkpoint: %+v", got[0])
	}
	if !strings.Contains(got[0].Err.Error(), "failed before the resume") {
		t.Errorf("restored failure not labelled as such: %v", got[0].Err)
	}
}

// TestBatchCheckpointKillResumeStress hammers the snapshot path under
// maximum contention — single-transition quanta, a snapshot after every
// transition, repeated kills — to prove checkpoints only ever observe
// step boundaries. Run with -race this doubles as the data-race proof:
// snapshots are taken by the driver that owns the job while other drivers
// are mid-quantum on theirs.
func TestBatchCheckpointKillResumeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	jobs := []Job{
		quickJob("s-gmh", testAlignment(t, 5, 40, 651), "gmh", 652),
		quickJob("s-heated", testAlignment(t, 5, 40, 653), "heated", 654),
		quickJob("s-mh", testAlignment(t, 5, 40, 655), "mh", 656),
	}
	for i := range jobs {
		jobs[i].Burnin = 10
		jobs[i].Samples = 120
		jobs[i].EMIterations = 2
	}
	pool := device.NewPool(2)
	want, err := RunBatch(context.Background(), pool, jobs, Options{Drivers: 3, Quantum: 1})
	pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	got := runToCompletionWithResume(t, jobs, dir, 20*time.Millisecond, 1, 1)
	for i := range want {
		requireSameOutcome(t, jobs[i].Name, want[i], got[i])
	}
}

// TestLoadManifestRejectsDuplicatesAndBadCounts covers the admission
// bugfix: specs that used to slip through and fail (or silently default)
// mid-run now die at load time with a clear error.
func TestLoadManifestRejectsDuplicatesAndBadCounts(t *testing.T) {
	dir := t.TempDir()
	aln := testAlignment(t, 5, 40, 661)
	f, err := os.Create(filepath.Join(dir, "pop.phy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := phylip.Write(f, aln); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "two.phy"), []byte("2 4\na AAAA\nb CCCC\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		manifest string
		wantErr  string
	}{
		"duplicate names": {
			`{"jobs": [
				{"name": "same", "phylip": "pop.phy", "theta": 1},
				{"name": "same", "phylip": "pop.phy", "theta": 1}
			]}`,
			"share the name",
		},
		"duplicate derived names": {
			`{"jobs": [
				{"phylip": "pop.phy", "theta": 1},
				{"phylip": "pop.phy", "theta": 1}
			]}`,
			"share the name",
		},
		"checkpoint key collision": {
			`{"jobs": [
				{"name": "pop A", "phylip": "pop.phy", "theta": 1},
				{"name": "Pop_a", "phylip": "pop.phy", "theta": 1}
			]}`,
			"same checkpoint key",
		},
		"zero chains": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "chains": 0}]}`,
			"chain count 0",
		},
		"negative chains": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "chains": -2}]}`,
			"chain count -2",
		},
		"zero proposals": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "proposals": 0}]}`,
			"proposal count 0",
		},
		"negative burnin": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "burnin": -5}]}`,
			"burn-in -5",
		},
		"negative samples": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "samples": -5}]}`,
			"sample count -5",
		},
		"negative theta": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": -1}]}`,
			"theta -1 must be positive",
		},
		"subnormal theta": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 5e-324}]}`,
			"theta 5e-324 is below the smallest supported value 1e-150",
		},
		"infinite theta": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": "+Inf"}]}`,
			"theta +Inf must be finite",
		},
		"NaN theta inherited from defaults": {
			`{"defaults": {"theta": "NaN"}, "jobs": [{"name": "x", "phylip": "pop.phy"}]}`,
			"theta NaN must be finite",
		},
		"NaN max_temp": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "max_temp": "NaN"}]}`,
			"max_temp NaN must be finite",
		},
		"NaN ess_target": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "ess_target": "NaN"}]}`,
			"ess_target NaN must be finite",
		},
		"infinite rhat_target": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "rhat_target": "+Inf"}]}`,
			"rhat_target +Inf must be finite",
		},
		"missing theta": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy"}]}`,
			"theta 0 must be positive",
		},
		"unknown sampler": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "nuts"}]}`,
			"unknown sampler",
		},
		"unknown model": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "model": "gtr"}]}`,
			"unknown model",
		},
		"two sequences": {
			`{"jobs": [{"name": "x", "phylip": "two.phy", "theta": 1}]}`,
			"need at least 3 sequences",
		},
		"adapt_ladder false on non-heated sampler": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "mh", "adapt_ladder": false}]}`,
			"only meaningful for the heated sampler",
		},
		"negative em iterations": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "em_iterations": -1}]}`,
			"EM iteration count -1",
		},
		"max_temp below 1": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "max_temp": 0.5}]}`,
			"max_temp 0.5",
		},
		"negative max_temp": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "max_temp": -4}]}`,
			"max_temp -4",
		},
		"negative swap_every": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "swap_every": -1}]}`,
			"swap_every -1",
		},
		"negative swap_window": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "swap_window": -8}]}`,
			"swap_window -8",
		},
		"proposals over the cap": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "proposals": 1025}]}`,
			"proposal count 1025 exceeds the cap of 1024",
		},
		"heated chains over the cap": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "chains": 129}]}`,
			"chain count 129 exceeds the cap of 128",
		},
		"multichain chains over the cap": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "multichain", "chains": 1000000000}]}`,
			"chain count 1000000000 exceeds the cap of 128",
		},
		"swap_window over the cap": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "heated", "swap_window": 4097}]}`,
			"swap_window 4097 exceeds the cap of 4096",
		},
		"tempering knob on non-heated sampler": {
			`{"jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "sampler": "gmh", "adapt_ladder": true}]}`,
			"only meaningful for the heated sampler",
		},
		"job-level tempering knob with sampler inherited as non-heated": {
			`{"defaults": {"sampler": "mh"},
			  "jobs": [{"name": "x", "phylip": "pop.phy", "theta": 1, "max_temp": 16}]}`,
			"only meaningful for the heated sampler",
		},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, []byte(tc.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadManifest(path)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

// TestFingerprintSensitivity: the fingerprint moves with anything that
// changes a job's trajectory, and holds still otherwise.
func TestFingerprintSensitivity(t *testing.T) {
	aln := testAlignment(t, 5, 40, 671)
	base := quickJob("fp", aln, "gmh", 672).withDefaults(0, 4)
	if Fingerprint(base) != Fingerprint(base) {
		t.Fatal("fingerprint not deterministic")
	}
	mutations := map[string]func(*Job){
		"seed":         func(j *Job) { j.Seed++ },
		"sampler":      func(j *Job) { j.Sampler = "mh" },
		"theta":        func(j *Job) { j.InitialTheta *= 2 },
		"burnin":       func(j *Job) { j.Burnin++ },
		"samples":      func(j *Job) { j.Samples++ },
		"proposals":    func(j *Job) { j.Proposals++ },
		"chains":       func(j *Job) { j.Chains++ },
		"data":         func(j *Job) { j.Alignment = testAlignment(t, 5, 40, 673) },
		"max_temp":     func(j *Job) { j.MaxTemp = 16 },
		"swap_every":   func(j *Job) { j.SwapEvery = 2 },
		"adapt_ladder": func(j *Job) { j.AdaptLadder = true },
		"swap_window":  func(j *Job) { j.SwapWindow = 32 },
	}
	for name, mutate := range mutations {
		j := base
		mutate(&j)
		if Fingerprint(j) == Fingerprint(base) {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
	// The tempering and stop-target fields are hashed only when set: a
	// job that leaves them all at their defaults must keep its historical
	// fingerprint, so checkpoints already on disk stay resumable.
	if got := Fingerprint(base); got != "5adf21257e1372e0bffc0f042367178877ac67ab1c5cb200e0877dbd5d4f8f67" {
		t.Errorf("default-knob fingerprint changed — existing checkpoints of knob-free jobs no longer resume (got %s)", got)
	}
}

// TestCheckpointFilePerJob: a checkpointed batch gives every job its own
// directory, named by its checkpoint key, holding one current-format
// state file and the job's trace sidecar; the batch directory itself
// holds no state file.
func TestCheckpointFilePerJob(t *testing.T) {
	jobs := []Job{
		quickJob("v1", testAlignment(t, 5, 40, 681), "mh", 682),
		quickJob("Pop B", testAlignment(t, 5, 40, 683), "mh", 684),
		quickJob("pooled", testAlignment(t, 5, 40, 685), "multichain", 686),
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	pool := device.NewPool(2)
	defer pool.Close()
	if _, err := RunBatch(context.Background(), pool, jobs, Options{
		Checkpoint: CheckpointOptions{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt.Path(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("batch directory has a state file of its own: %v", err)
	}
	for _, job := range jobs {
		jobDir := filepath.Join(dir, CheckpointKey(job.Name))
		j, err := ckpt.Load(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		if j.Version != ckpt.FormatVersion {
			t.Errorf("job %q: version %d, want %d", job.Name, j.Version, ckpt.FormatVersion)
		}
		if j.Name != job.Name || j.Status != ckpt.StatusDone || j.Fingerprint == "" {
			t.Errorf("job %q: record %q status %q fingerprint %q", job.Name, j.Name, j.Status, j.Fingerprint)
		}
		// The state file and one trace sidecar, whatever the sampler.
		entries, err := os.ReadDir(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		want := []string{ckpt.FileName, filepath.Base(TracePath(jobDir, job.Name))}
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Errorf("job %q: checkpoint directory holds %q, want %q", job.Name, names, want)
		}
	}
}

// TestBatchRefusesCheckpointKeyCollisions: two jobs whose names resolve
// to the same checkpoint key would share one checkpoint directory, so a
// checkpointed batch holding them is refused before any job runs.
// Without checkpointing there is nothing to share and both run.
func TestBatchRefusesCheckpointKeyCollisions(t *testing.T) {
	aln := testAlignment(t, 5, 40, 691)
	for _, tc := range []struct{ a, b, wantErr string }{
		{"pop A", "pop_a", "same checkpoint key"},
		{"a", "a", "share the name"},
	} {
		jobs := []Job{quickJob(tc.a, aln, "mh", 692), quickJob(tc.b, aln, "mh", 693)}
		dir := filepath.Join(t.TempDir(), "ckpt")
		results, err := RunBatch(context.Background(), nil, jobs, Options{Checkpoint: CheckpointOptions{Dir: dir}})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%q + %q: err = %v, want %q", tc.a, tc.b, err, tc.wantErr)
		}
		for _, r := range results {
			if r.Err == nil || r.Steps != 0 {
				t.Errorf("%q + %q: job %q ran or carries no error: steps %d, err %v", tc.a, tc.b, r.Name, r.Steps, r.Err)
			}
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%q + %q: refused batch touched its checkpoint directory: %v", tc.a, tc.b, err)
		}
		if results, err = RunBatch(context.Background(), nil, jobs, Options{}); err != nil || results[0].Err != nil || results[1].Err != nil {
			t.Errorf("%q + %q without checkpointing: %v, %v, %v", tc.a, tc.b, err, results[0].Err, results[1].Err)
		}
	}
}

// TestCheckpointWriteFailureIsLoud is the fault-injection case of the
// durability contract: when the checkpoint directory cannot be created
// (its parent is a regular file), RunBatch returns the error and every
// job carries it, and Queue.Submit returns it without a ticket.
func TestCheckpointWriteFailureIsLoud(t *testing.T) {
	root := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(root, []byte("a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		quickJob("w1", testAlignment(t, 5, 40, 695), "mh", 696),
		quickJob("w2", testAlignment(t, 5, 40, 697), "mh", 698),
	}
	for _, resume := range []bool{false, true} {
		results, err := RunBatch(context.Background(), nil, jobs, Options{
			Checkpoint: CheckpointOptions{Dir: root},
			Resume:     resume,
		})
		if err == nil {
			t.Fatalf("resume=%v: batch over an unwritable checkpoint directory succeeded", resume)
		}
		for _, r := range results {
			if r.Err == nil || r.Steps != 0 {
				t.Errorf("resume=%v: job %q ran or carries no error: steps %d, err %v", resume, r.Name, r.Steps, r.Err)
			}
		}
	}

	q := NewQueue(device.NewPool(2), QueueOptions{})
	defer q.Close()
	for _, resume := range []bool{false, true} {
		tk, err := q.Submit(jobs[0], SubmitOptions{
			Checkpoint: CheckpointOptions{Dir: filepath.Join(root, "w1")},
			Resume:     resume,
		})
		if err == nil || tk != nil {
			t.Fatalf("resume=%v: Submit over an unwritable checkpoint directory: ticket %v, err %v", resume, tk, err)
		}
	}
	if n := q.Pending(); n != 0 {
		t.Errorf("refused submissions left %d pending", n)
	}
	if data, err := os.ReadFile(root); err != nil || string(data) != "a file" {
		t.Errorf("the file in the directory's place was disturbed: %q, %v", data, err)
	}
}

// TestResumeRefusesUnreadableCheckpoints: a resume never restarts a job
// whose saved state it cannot read. A corrupt state file fails the
// submission, and a batch directory holding a whole-batch state file of
// format 3 is refused by name and version before any job runs.
func TestResumeRefusesUnreadableCheckpoints(t *testing.T) {
	job := quickJob("corrupt", testAlignment(t, 5, 40, 699), "mh", 700)
	dir := t.TempDir()
	if err := os.WriteFile(ckpt.Path(dir), []byte(fmt.Sprintf(`{"version": %d, "name"`, ckpt.FormatVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	q := NewQueue(device.NewPool(2), QueueOptions{})
	defer q.Close()
	tk, err := q.Submit(job, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	if err == nil || tk != nil || !strings.Contains(err.Error(), ckpt.Path(dir)) {
		t.Fatalf("corrupt state file: ticket %v, err %v", tk, err)
	}

	batchDir := t.TempDir()
	v3 := `{"version": 3, "jobs": [{"name": "corrupt", "fingerprint": "fp", "status": "done", "steps": 9, "theta": "0x1p+00"}]}`
	if err := os.WriteFile(ckpt.Path(batchDir), []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := RunBatch(context.Background(), nil, []Job{job}, Options{
		Checkpoint: CheckpointOptions{Dir: batchDir},
		Resume:     true,
	})
	for _, want := range []string{ckpt.Path(batchDir), "version 3", fmt.Sprintf("only version %d", ckpt.FormatVersion)} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("format-3 batch directory: err %v does not mention %q", err, want)
		}
	}
	if results[0].Err == nil || results[0].Steps != 0 {
		t.Errorf("job ran or carries no error: %+v", results[0])
	}
	if _, err := os.Stat(filepath.Join(batchDir, CheckpointKey(job.Name))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused resume started the job afresh: %v", err)
	}
}

// TestValidateResourceCaps pins the allocation caps: a value at a cap is
// admitted, one past it is refused, and a cap applies only to the
// samplers that allocate by its knob, so a GMH job on a pool wider than
// maxChains still runs.
func TestValidateResourceCaps(t *testing.T) {
	aln := testAlignment(t, 5, 40, 662)
	base := Job{Alignment: aln, InitialTheta: 1}
	with := func(f func(*Job)) Job {
		j := base
		f(&j)
		return j
	}
	admitted := map[string]Job{
		"gmh at proposal cap":            with(func(j *Job) { j.Proposals = maxProposals }),
		"heated at chain and window cap": with(func(j *Job) { j.Sampler, j.Chains, j.SwapWindow = "heated", maxChains, maxSwapWindow }),
		"multichain at chain cap":        with(func(j *Job) { j.Sampler, j.Chains = "multichain", maxChains }),
		"gmh with a wide pool's chains":  with(func(j *Job) { j.Chains = 4 * maxChains }),
		"mh with a wide pool's counts":   with(func(j *Job) { j.Sampler, j.Proposals, j.Chains = "mh", 4*maxProposals, 4*maxChains }),
	}
	for name, j := range admitted {
		if err := j.Validate(); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
	}
	refused := map[string]Job{
		"gmh past proposal cap":   with(func(j *Job) { j.Proposals = maxProposals + 1 }),
		"heated past chain cap":   with(func(j *Job) { j.Sampler, j.Chains = "heated", maxChains+1 }),
		"multichain past cap":     with(func(j *Job) { j.Sampler, j.Chains = "multichain", maxChains+1 }),
		"heated past window cap":  with(func(j *Job) { j.Sampler, j.SwapWindow = "heated", maxSwapWindow+1 }),
		"pool default past a cap": with(func(j *Job) {}).withDefaults(0, maxProposals+1),
	}
	for name, j := range refused {
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("%s: got %v, want a cap refusal", name, err)
		}
	}
}
