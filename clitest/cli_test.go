// Package clitest smoke-tests the command-line tools end to end: the
// mssim -> seqgen -> mpcgs pipeline the paper's §6.1 describes, exercised
// through the real binaries.
package clitest

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/experiments"
	"mpcgs/internal/felsen"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mpcgs-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	buildArgs := []string{"build"}
	if raceEnabled {
		// When the test harness runs under -race, the binaries under test
		// must too, or the smoke tests prove nothing about the daemon's
		// concurrency.
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", binDir, "./cmd/...")
	build := exec.Command("go", buildArgs...)
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		panic("building CLIs: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, name string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got success\n%s", name, args, out)
	}
	return string(out)
}

func TestMssimOutputsTrees(t *testing.T) {
	out := run(t, "mssim", "", "-seed", "5", "6", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 trees, got %d:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, ";") || !strings.Contains(l, ":") {
			t.Errorf("line does not look like a Newick tree: %q", l)
		}
	}
}

func TestMssimRejectsBadArgs(t *testing.T) {
	runExpectError(t, "mssim", "1", "1")
	runExpectError(t, "mssim", "-theta", "-1", "5", "1")
}

func TestSeqgenFromMssim(t *testing.T) {
	trees := run(t, "mssim", "", "-seed", "7", "8", "1")
	phy := run(t, "seqgen", trees, "-l", "120", "-seed", "9")
	if !strings.HasPrefix(phy, "8 120") {
		t.Fatalf("expected PHYLIP header '8 120', got:\n%s", phy[:min(len(phy), 80)])
	}
	if strings.Count(phy, "\n") < 8 {
		t.Fatalf("expected 8 sequence lines:\n%s", phy)
	}
}

func TestSeqgenModels(t *testing.T) {
	trees := run(t, "mssim", "", "-seed", "11", "4", "1")
	for _, model := range []string{"F84", "F81", "JC69"} {
		out := run(t, "seqgen", trees, "-l", "40", "-m", model, "-seed", "12")
		if !strings.HasPrefix(out, "4 40") {
			t.Errorf("model %s: bad output header", model)
		}
	}
	runExpectError(t, "seqgen", "-m", "BOGUS")
}

func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "13", "-theta", "1.0", "10", "1")
	phy := run(t, "seqgen", trees, "-l", "200", "-seed", "14")
	dir := t.TempDir()
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mpcgs", "",
		"-burnin", "200", "-samples", "1500", "-em-iterations", "2", "-seed", "15",
		path, "0.5")
	if !strings.Contains(out, "theta = ") {
		t.Fatalf("no estimate in output:\n%s", out)
	}
	if !strings.Contains(out, "diagnostics:") {
		t.Errorf("no diagnostics in output:\n%s", out)
	}
}

func TestMpcgsGrowthFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "17", "8", "1")
	phy := run(t, "seqgen", trees, "-l", "150", "-seed", "18")
	dir := t.TempDir()
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mpcgs", "", "-q", "-growth",
		"-burnin", "100", "-samples", "1000", "-em-iterations", "1", "-seed", "19",
		path, "1.0")
	if !strings.Contains(out, "growth:") {
		t.Fatalf("no growth estimate in output:\n%s", out)
	}
}

// TestMpcgsGrowthWarnsOnLowWeightESS: -growth warns on stderr when the
// weights' effective sample size is below n/10, and stdout carries the
// same lines either way. On 12×200 data (true θ = 1) a single EM pass
// driven at θ0 = 5 leaves a few dozen effective draws of 2000; one driven
// at θ0 = 0.5 leaves most of them.
func TestMpcgsGrowthWarnsOnLowWeightESS(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	aln, _, err := seqgen.SimulateData(12, 200, 1.0, 2412)
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := phylip.Write(&phy, aln); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.phy")
	if err := os.WriteFile(path, phy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		theta0 string
		warn   bool
	}{{"5", true}, {"0.5", false}} {
		cmd := exec.Command(filepath.Join(binDir, "mpcgs"), "-q", "-growth", "-proposals", "8",
			"-em-iterations", "1", "-burnin", "200", "-samples", "2000", path, tc.theta0)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("theta0 %s: %v\n%s%s", tc.theta0, err, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), "growth: ") || strings.Contains(stdout.String(), "warning") {
			t.Errorf("theta0 %s: stdout must hold the growth line and no warning:\n%s", tc.theta0, stdout.String())
		}
		if got := strings.Contains(stderr.String(), "warning: the growth estimate rests on"); got != tc.warn {
			t.Errorf("theta0 %s: warned %v, want %v\nstdout:\n%sstderr:\n%s", tc.theta0, got, tc.warn, stdout.String(), stderr.String())
		}
	}
}

// TestMpcgsReportsFrozenPass runs a GMH pass that never accepts a move
// (θ0 = 0.01 on seqgen seed 99) and requires mpcgs to report it as
// undiagnosable: ESS 0, z NaN, burn-in not sufficient, and why.
func TestMpcgsReportsFrozenPass(t *testing.T) {
	aln, _, err := seqgen.SimulateData(12, 200, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := phylip.Write(&phy, aln); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.phy")
	if err := os.WriteFile(path, phy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mpcgs", "", "-workers", "2", "-em-iterations", "1", "-seed", "3", path, "0.01")
	for _, want := range []string{"(acceptance 0.000,", "ESS(S) 0, Geweke z(log L) NaN,", "(sufficient: false)", "the chain did not move, so it cannot be diagnosed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestMpcgsSamplerFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "21", "6", "1")
	phy := run(t, "seqgen", trees, "-l", "100", "-seed", "22")
	dir := t.TempDir()
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []string{"gmh", "mh", "multichain"} {
		out := run(t, "mpcgs", "", "-q", "-sampler", sampler,
			"-burnin", "50", "-samples", "400", "-em-iterations", "1", "-seed", "23",
			path, "1.0")
		if !strings.Contains(out, "theta = ") {
			t.Errorf("sampler %s: no estimate:\n%s", sampler, out)
		}
	}
}

func TestMpcgsRejectsBadInput(t *testing.T) {
	runExpectError(t, "mpcgs", "/nonexistent.phy", "1.0")
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.phy")
	if err := os.WriteFile(path, []byte("not phylip"), 0o644); err != nil {
		t.Fatal(err)
	}
	runExpectError(t, "mpcgs", path, "1.0")
	runExpectError(t, "mpcgs", path, "-2")

	// Non-finite floats on valid data are refused by the spec gate with
	// a message, never reach the sampler (where an infinite θ panics) and
	// are never silently ignored (a NaN stop target used to be).
	good := filepath.Join(dir, "good.phy")
	if err := os.WriteFile(good, []byte("4 8\na ACGTACGT\nb ACGTACGA\nc ACGAACGT\nd TCGTACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{good, "Inf"},
		{good, "NaN"},
		{"-checkpoint", filepath.Join(dir, "ck"), "-ess-target", "NaN", good, "1.0"},
		{"-checkpoint", filepath.Join(dir, "ck"), "-rhat-target", "Inf", good, "1.0"},
		{"-sampler", "heated", "-max-temp", "NaN", good, "1.0"},
		{"-bayesian", good, "NaN"},
		{"-bayesian", good, "Inf"},
	} {
		out := runExpectError(t, "mpcgs", args...)
		if !strings.Contains(out, "must be finite") || strings.Contains(out, "panic") {
			t.Errorf("mpcgs %v: want a must-be-finite refusal:\n%s", args, out)
		}
	}

	// A finite θ so small that the resimulation's rates overflow used to
	// panic the scheduler (rng.UniformPair with n < 2); the spec gate
	// refuses it, subnormals included.
	for _, args := range [][]string{
		{"-burnin", "20", "-samples", "50", "-em-iterations", "1", good, "1e-308"},
		{good, "5e-324"},
		{"-bayesian", good, "1e-308"},
	} {
		out := runExpectError(t, "mpcgs", args...)
		if !strings.Contains(out, "below the smallest supported value") || strings.Contains(out, "panic") {
			t.Errorf("mpcgs %v: want a smallest-theta refusal:\n%s", args, out)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMpcgsBayesianFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "25", "8", "1")
	phy := run(t, "seqgen", trees, "-l", "120", "-seed", "26")
	dir := t.TempDir()
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mpcgs", "", "-bayesian",
		"-burnin", "200", "-samples", "1500", "-seed", "27",
		path, "1.0")
	if !strings.Contains(out, "posterior theta") || !strings.Contains(out, "95% CI") {
		t.Fatalf("no posterior summary in output:\n%s", out)
	}
	// -bayesian refuses -sampler, so the header must name the Bayesian
	// chain rather than the -sampler default.
	if !strings.Contains(out, "sampler=bayesian model=") {
		t.Errorf("header does not announce the Bayesian sampler:\n%s", out)
	}
}

func TestPaperbenchBurninExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	out := run(t, "paperbench", "", "-experiment", "burnin", "-scale", "quick")
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "effective sample size") {
		t.Fatalf("burnin experiment output unexpected:\n%s", out)
	}
}

func TestMpcgsBatchManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	dir := t.TempDir()
	makeData := func(name string, mssimSeed, seqgenSeed string) string {
		trees := run(t, "mssim", "", "-seed", mssimSeed, "8", "1")
		phy := run(t, "seqgen", trees, "-l", "120", "-seed", seqgenSeed)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	makeData("a.phy", "31", "32")
	makeData("b.phy", "33", "34")
	manifest := `{
  "defaults": {"theta": 1.0, "burnin": 100, "samples": 800, "em_iterations": 1, "seed": 7},
  "jobs": [
    {"name": "a", "phylip": "a.phy"},
    {"name": "b", "phylip": "b.phy", "seed": 8}
  ]
}`
	mpath := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mpcgs", "", "-workers", "2", "-batch", mpath)
	for _, want := range []string{"batch of 2 jobs", "job a", "job b", "theta = ", "2 ok, 0 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q:\n%s", want, out)
		}
	}

	// The batch estimate must equal the standalone run of the same job:
	// same data, seed, sampler settings and worker count.
	solo := run(t, "mpcgs", "", "-q", "-workers", "2",
		"-burnin", "100", "-samples", "800", "-em-iterations", "1", "-seed", "7",
		filepath.Join(dir, "a.phy"), "1.0")
	soloTheta := ""
	for _, line := range strings.Split(solo, "\n") {
		if rest, ok := strings.CutPrefix(line, "theta = "); ok {
			soloTheta = strings.TrimSpace(rest)
		}
	}
	if soloTheta == "" {
		t.Fatalf("no standalone estimate:\n%s", solo)
	}
	batchTheta := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "job a") {
			fields := strings.Fields(line)
			// "job a theta = X (...)"
			for i, f := range fields {
				if f == "=" && i+1 < len(fields) {
					batchTheta = fields[i+1]
				}
			}
		}
	}
	if batchTheta != soloTheta {
		t.Errorf("batch theta %q differs from standalone %q", batchTheta, soloTheta)
	}
}

func TestMpcgsBatchRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"jobs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runExpectError(t, "mpcgs", "-batch", path)
	runExpectError(t, "mpcgs", "-batch", filepath.Join(dir, "absent.json"))
}

// TestPaperbenchRetiredExperiments pins that batch and service are no
// longer experiments: sched's BenchmarkBatchThroughput and bench's
// service-mix workload measure them.
func TestPaperbenchRetiredExperiments(t *testing.T) {
	for _, name := range []string{"batch", "service"} {
		out := runExpectError(t, "paperbench", "-experiment", name)
		if !strings.Contains(out, "unknown experiment") {
			t.Errorf("-experiment %s: want unknown experiment, got:\n%s", name, out)
		}
	}
}

func TestPaperbenchGuardRefusesVacuousRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	// The burnin experiment measures no speedup points, so comparing it
	// against the committed snapshots must fail loudly rather than pass
	// a check of nothing.
	out := runExpectError(t, "paperbench",
		"-experiment", "burnin", "-scale", "quick", "-compare", "..")
	if !strings.Contains(out, "no measured point") {
		t.Fatalf("vacuous compare run did not explain itself:\n%s", out)
	}
}

// TestPaperbenchCompareIgnoresOwnSnapshot writes the run's snapshot into
// the directory it compares against. The baseline there has every seqlen
// speedup inflated tenfold, so the run must fail: the fresh BENCH_99.json
// must not become the "latest" snapshot and pass the run against itself.
func TestPaperbenchCompareIgnoresOwnSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	dir := t.TempDir()
	snap, err := experiments.ParseSnapshot(filepath.Join("..", "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Speedups["seqlen"] {
		snap.Speedups["seqlen"][i].Speedup *= 10
	}
	if err := snap.Write(filepath.Join(dir, "BENCH_10.json")); err != nil {
		t.Fatal(err)
	}
	out := runExpectError(t, "paperbench", "-experiment", "seqlen", "-scale", "quick",
		"-json", filepath.Join(dir, "BENCH_99.json"), "-compare", dir)
	if !strings.Contains(out, "regressed past 70% of BENCH_10.json") {
		t.Fatalf("run was not compared against the committed snapshot:\n%s", out)
	}
}

// extractTheta pulls the final "theta = X" estimate out of CLI output.
func extractTheta(t *testing.T, out string) string {
	t.Helper()
	theta := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "theta = "); ok {
			theta = strings.TrimSpace(rest)
		}
	}
	if theta == "" {
		t.Fatalf("no estimate in output:\n%s", out)
	}
	return theta
}

// TestMpcgsCheckpointSigintResume is the end-to-end kill/resume test: a
// single-run estimation is interrupted with SIGINT (which writes a final
// checkpoint before exit), then resumed with -resume, and the final
// estimate must equal the uninterrupted run's exactly.
func TestMpcgsCheckpointSigintResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "41", "8", "1")
	phy := run(t, "seqgen", trees, "-l", "120", "-seed", "42")
	dir := t.TempDir()
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-q", "-workers", "2",
		"-burnin", "200", "-samples", "48000", "-em-iterations", "2", "-seed", "43"}

	// Uninterrupted reference.
	ref := extractTheta(t, run(t, "mpcgs", "", append(args, path, "1.0")...))

	// Interrupted run: SIGINT lands mid-estimation, once the first
	// periodic checkpoint shows the run is under way; the process must
	// exit on its own (cancellation, final checkpoint, results printed)
	// and leave the job paused. A run that finished before the signal
	// exercised nothing, so it fails the test.
	ckptDir := filepath.Join(dir, "ckpt")
	jobDir := filepath.Join(ckptDir, "data")
	killArgs := append([]string{"-checkpoint", ckptDir, "-checkpoint-every", "200"}, args...)
	cmd := exec.Command(filepath.Join(binDir, "mpcgs"), append(killArgs, path, "1.0")...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if st, err := ckpt.Load(jobDir); err == nil && st.Status == ckpt.StatusPaused {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("no periodic checkpoint within a minute")
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	st, loadErr := ckpt.Load(jobDir)
	if loadErr != nil {
		t.Fatalf("no checkpoint after interrupt (run err: %v): %v", err, loadErr)
	}
	if st.Status != ckpt.StatusPaused {
		t.Fatalf("job is %q after the interrupt, want %q: the run finished before the signal landed", st.Status, ckpt.StatusPaused)
	}

	// Resume to completion (repeat in the unlikely event the first resume
	// is itself too slow — it is not interrupted, so once is enough).
	out := run(t, "mpcgs", "", append(append([]string{"-resume", ckptDir}, args...), path, "1.0")...)
	if got := extractTheta(t, out); got != ref {
		t.Fatalf("resumed estimate %s != uninterrupted %s\n%s", got, ref, out)
	}
}

// TestMpcgsBatchResumeSkipsFinished: resuming a completed batch re-reports
// every job from the checkpoint without re-running it.
func TestMpcgsBatchResumeSkipsFinished(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	dir := t.TempDir()
	trees := run(t, "mssim", "", "-seed", "45", "6", "1")
	phy := run(t, "seqgen", trees, "-l", "100", "-seed", "46")
	if err := os.WriteFile(filepath.Join(dir, "a.phy"), []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{
  "defaults": {"theta": 1.0, "burnin": 50, "samples": 400, "em_iterations": 1, "seed": 9},
  "jobs": [{"name": "a", "phylip": "a.phy"}]
}`
	mpath := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	first := run(t, "mpcgs", "", "-workers", "2", "-batch", mpath, "-checkpoint", ckptDir)
	second := run(t, "mpcgs", "", "-workers", "2", "-batch", mpath, "-resume", ckptDir)
	if !strings.Contains(second, "[restored from checkpoint]") {
		t.Fatalf("resumed batch re-ran the finished job:\n%s", second)
	}
	// "job a                theta = X (...)": the estimate is the field
	// after the "=".
	jobTheta := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "job a") {
				fields := strings.Fields(line)
				for i, f := range fields {
					if f == "=" && i+1 < len(fields) {
						return fields[i+1]
					}
				}
			}
		}
		return ""
	}
	want, got := jobTheta(first), jobTheta(second)
	if want == "" || got != want {
		t.Fatalf("restored theta %q != original %q", got, want)
	}
}

// TestMpcgsResumeRejectsOtherCheckpointDir: -resume keeps checkpointing
// into the directory it resumes from, so pairing it with -checkpoint of
// another directory is a usage error, refused before anything runs or
// is written.
func TestMpcgsResumeRejectsOtherCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	x, y := filepath.Join(dir, "x"), filepath.Join(dir, "y")
	out := runExpectError(t, "mpcgs", "-resume", x, "-checkpoint", y, filepath.Join(dir, "absent.phy"), "1.0")
	if !strings.Contains(out, "drop -checkpoint") {
		t.Fatalf("-resume X -checkpoint Y error unclear:\n%s", out)
	}
	if _, err := os.Stat(y); !os.IsNotExist(err) {
		t.Fatalf("refused invocation created the -checkpoint directory: %v", err)
	}
}

// TestMpcgsRefusesV3BatchCheckpoint: a format-3 checkpoint directory —
// one batch.json holding every job — is refused by both -resume and
// -inspect, with an error naming the file and both versions, and the
// refused resume starts nothing afresh.
func TestMpcgsRefusesV3BatchCheckpoint(t *testing.T) {
	dir := t.TempDir()
	phy := run(t, "seqgen", run(t, "mssim", "", "-seed", "47", "5", "1"), "-l", "60", "-seed", "48")
	if err := os.WriteFile(filepath.Join(dir, "a.phy"), []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, "jobs.json")
	manifest := `{"defaults": {"theta": 1.0, "burnin": 20, "samples": 100, "em_iterations": 1}, "jobs": [{"name": "a", "phylip": "a.phy"}]}`
	if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	v3 := `{
 "version": 3,
 "jobs": [
  {
   "name": "a",
   "fingerprint": "3f0c",
   "status": "done",
   "steps": 120,
   "theta": "0x1.2p+00",
   "history": [{"theta_in": "0x1p+00", "theta_out": "0x1.2p+00", "acceptance_rate": "0x1p-01", "mean_loglik": "-0x1p+08"}]
  }
 ]
}
`
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt.Path(ckptDir), []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workers", "2", "-batch", mpath, "-resume", ckptDir},
		{"-inspect", ckptDir},
	} {
		out := runExpectError(t, "mpcgs", args...)
		for _, want := range []string{ckpt.Path(ckptDir), "version 3", fmt.Sprintf("only version %d", ckpt.FormatVersion)} {
			if !strings.Contains(out, want) {
				t.Fatalf("mpcgs %v: output does not mention %q:\n%s", args, want, out)
			}
		}
	}
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("refused resume wrote into the checkpoint directory: %v", entries)
	}
	if data, err := os.ReadFile(ckpt.Path(ckptDir)); err != nil || string(data) != v3 {
		t.Fatalf("refused resume changed the format-3 file: %v", err)
	}
}

// TestMpcgsHeatedSwapReport: a heated run prints the per-pair swap-rate
// ladder report, and -adapt-ladder labels it as adapted.
func TestMpcgsHeatedSwapReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	trees := run(t, "mssim", "", "-seed", "51", "6", "1")
	phy := run(t, "seqgen", trees, "-l", "80", "-seed", "52")
	path := filepath.Join(t.TempDir(), "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-sampler", "heated", "-chains", "3", "-workers", "2",
		"-burnin", "60", "-samples", "300", "-em-iterations", "1", "-seed", "53"}
	out := run(t, "mpcgs", "", append(args, path, "1.0")...)
	if !strings.Contains(out, "ladder (geometric, 3 rungs)") || !strings.Contains(out, "pair 0-1") {
		t.Fatalf("heated run printed no swap report:\n%s", out)
	}
	out = run(t, "mpcgs", "", append(append([]string{"-adapt-ladder", "-swap-window", "8"}, args...), path, "1.0")...)
	if !strings.Contains(out, "ladder (adapted, ") || !strings.Contains(out, "updates, 3 rungs)") ||
		!strings.Contains(out, "pair 1-2") {
		t.Fatalf("adaptive heated run printed no adapted swap report:\n%s", out)
	}
	// Tempering flags on a non-heated sampler die with a clear error
	// instead of being silently dropped.
	bad := runExpectError(t, "mpcgs", "-sampler", "gmh", "-adapt-ladder", path, "1.0")
	if !strings.Contains(bad, "only meaningful for the heated sampler") {
		t.Fatalf("gmh -adapt-ladder error unclear:\n%s", bad)
	}
	// Nonsense tempering flags die with a clear error.
	bad = runExpectError(t, "mpcgs", append([]string{"-sampler", "heated", "-max-temp", "0.5"}, path, "1.0")...)
	if !strings.Contains(bad, "max_temp 0.5") {
		t.Fatalf("bad -max-temp error unclear:\n%s", bad)
	}
}

// writeData simulates an alignment through the mssim -> seqgen pipeline
// and writes it to dir/data.phy.
func writeData(t *testing.T, dir string, nsam, length, mssimSeed, seqgenSeed string) string {
	t.Helper()
	trees := run(t, "mssim", "", "-seed", mssimSeed, nsam, "1")
	phy := run(t, "seqgen", trees, "-l", length, "-seed", seqgenSeed)
	path := filepath.Join(dir, "data.phy")
	if err := os.WriteFile(path, []byte(phy), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMpcgsBatchRefusesJobFlags: a batch takes every job setting from
// its manifest, so each per-job flag set next to -batch is refused
// before anything runs, with a pointer to the manifest field — or, for
// the single-run options, to the mode they belong to — instead of being
// silently ignored.
func TestMpcgsBatchRefusesJobFlags(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir, "5", "60", "71", "72")
	mpath := filepath.Join(dir, "jobs.json")
	manifest := `{"defaults": {"theta": 1.0, "burnin": 20, "samples": 100, "em_iterations": 1}, "jobs": [{"name": "a", "phylip": "data.phy"}]}`
	if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag []string
		want string
	}{
		{[]string{"-sampler", "mh"}, "-sampler does not apply to -batch; set sampler per job in the manifest"},
		{[]string{"-model", "jc69"}, "set model per job"},
		{[]string{"-proposals", "4"}, "set proposals per job"},
		{[]string{"-chains", "3"}, "set chains per job"},
		{[]string{"-max-temp", "4"}, "set max_temp per job"},
		{[]string{"-swap-every", "2"}, "set swap_every per job"},
		{[]string{"-adapt-ladder"}, "set adapt_ladder per job"},
		{[]string{"-swap-window", "8"}, "set swap_window per job"},
		{[]string{"-ess-target", "50"}, "set ess_target per job"},
		{[]string{"-rhat-target", "1.1"}, "set rhat_target per job"},
		{[]string{"-burnin", "10"}, "set burnin per job"},
		{[]string{"-samples", "50"}, "set samples per job"},
		{[]string{"-em-iterations", "2"}, "set em_iterations per job"},
		{[]string{"-seed", "5"}, "set seed per job"},
		{[]string{"-growth"}, "-growth applies only to a single estimation"},
		{[]string{"-curve"}, "-curve applies only to a single estimation"},
		{[]string{"-bayesian"}, "-bayesian applies only to a single estimation"},
	} {
		args := append(append([]string{"-workers", "2"}, c.flag...), "-batch", mpath)
		out := runExpectError(t, "mpcgs", args...)
		if !strings.Contains(out, c.want) || strings.Contains(out, "theta =") {
			t.Errorf("mpcgs %v: want a refusal mentioning %q:\n%s", args, c.want, out)
		}
	}
}

// TestMpcgsBayesianRefusesIgnoredFlags: the Bayesian chain reads only
// -model, -burnin, -samples and -seed of the job flags and is not
// checkpointable, so any other job flag next to -bayesian is refused
// rather than dropped.
func TestMpcgsBayesianRefusesIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	path := writeData(t, dir, "5", "60", "73", "74")
	for _, flags := range [][]string{
		{"-sampler", "mh"},
		{"-max-temp", "4"},
		{"-ess-target", "50"},
		{"-growth"},
		{"-checkpoint", filepath.Join(dir, "ck")},
	} {
		args := append(append([]string{"-bayesian", "-burnin", "20", "-samples", "100"}, flags...), path, "1.0")
		out := runExpectError(t, "mpcgs", args...)
		if !strings.Contains(out, flags[0]+" does not apply to -bayesian") {
			t.Errorf("mpcgs %v: want a refusal naming %s:\n%s", args, flags[0], out)
		}
	}
}

// TestMpcgsESSTargetWithoutCheckpoint: every single run is a scheduled
// job, so the auto-stop rule needs no -checkpoint: the run stops on its
// target and estimates exactly what the checkpointed run does.
func TestMpcgsESSTargetWithoutCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	dir := t.TempDir()
	path := writeData(t, dir, "8", "120", "61", "62")
	args := []string{"-workers", "2", "-burnin", "100", "-samples", "4000", "-em-iterations", "1", "-seed", "9", "-ess-target", "15"}
	plain := run(t, "mpcgs", "", append(args, path, "1.0")...)
	if !strings.Contains(plain, "auto-stop: final pass ended early") {
		t.Fatalf("-ess-target without -checkpoint did not auto-stop:\n%s", plain)
	}
	ck := run(t, "mpcgs", "", append(append([]string{"-checkpoint", filepath.Join(dir, "ck")}, args...), path, "1.0")...)
	if got, want := extractTheta(t, plain), extractTheta(t, ck); got != want {
		t.Fatalf("theta %s without -checkpoint, %s with it", got, want)
	}
}

// TestMpcgsGrowthCurveCheckpoint: -growth and -curve read the final
// pass's draws, which a checkpointed run reads back from its trace
// sidecar, so they print the same lines with -checkpoint as without. A
// resume of a job that had already finished has no draws left, and
// refuses them with a clear error.
func TestMpcgsGrowthCurveCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	dir := t.TempDir()
	path := writeData(t, dir, "8", "150", "17", "18")
	args := []string{"-q", "-growth", "-curve", "-workers", "2", "-burnin", "100", "-samples", "800", "-em-iterations", "1", "-seed", "19"}
	plain := run(t, "mpcgs", "", append(args, path, "1.0")...)
	if !strings.Contains(plain, "growth: theta = ") || !strings.Contains(plain, "log L(theta)") {
		t.Fatalf("no growth estimate or curve:\n%s", plain)
	}
	ckDir := filepath.Join(dir, "ck")
	if ck := run(t, "mpcgs", "", append(append([]string{"-checkpoint", ckDir}, args...), path, "1.0")...); ck != plain {
		t.Fatalf("-checkpoint changed the report:\n%s\nwithout -checkpoint:\n%s", ck, plain)
	}
	out := runExpectError(t, "mpcgs", append(append([]string{"-resume", ckDir}, args...), path, "1.0")...)
	if !strings.Contains(out, "-growth and -curve need the final pass's draws") {
		t.Fatalf("-resume of a finished job with -growth: unclear error:\n%s", out)
	}
}

// TestMpcgsInspect: -inspect prints per-job status from a checkpoint
// directory without resuming — finished jobs with their estimates, and a
// paused adaptive heated job with its temperature ladder. The paused
// entry is constructed from a real engine snapshot so the test is
// deterministic (no SIGINT races).
func TestMpcgsInspect(t *testing.T) {
	dir := t.TempDir()

	// A real mid-flight adaptive heated snapshot for the paused job.
	dev := device.Serial()
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 55)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := core.InitialTree(aln, 1.0, 56)
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewHeated(eval, dev, 3)
	h.Adapt = true
	h.MaxTemp = 16
	h.SwapWindow = 8
	if err := os.MkdirAll(filepath.Join(dir, "midflight"), 0o755); err != nil {
		t.Fatal(err)
	}
	em, err := core.StartEM(h, init, core.EMConfig{
		InitialTheta: 1.0, Iterations: 2, Burnin: 40, Samples: 120, Seed: 57,
		Trace: &core.TraceSpec{Path: filepath.Join(dir, "midflight", "midflight.trace")},
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 75; i++ {
		if err := em.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := em.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ckpt.EncodeEM(snap)
	if err != nil {
		t.Fatal(err)
	}

	// A real mid-flight multichain snapshot: 2 chains, 30 sweeps into
	// the first pass, spilling into the job's one sidecar.
	pooledTrace := filepath.Join(dir, "pooled", "pooled.trace")
	if err := os.MkdirAll(filepath.Dir(pooledTrace), 0o755); err != nil {
		t.Fatal(err)
	}
	mc, err := core.StartEM(core.NewMultiChain(eval, dev, 2), init, core.EMConfig{
		InitialTheta: 1.0, Iterations: 2, Burnin: 20, Samples: 120, Seed: 58,
		Trace: &core.TraceSpec{Path: pooledTrace},
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := mc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	mcSnap, err := mc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mcWire, err := ckpt.EncodeEM(mcSnap)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*ckpt.JobState{
		{Name: "finished", Fingerprint: "fp1", Status: ckpt.StatusDone, Steps: 320,
			Theta: "0x1.8p+00"},
		{Name: "broken", Fingerprint: "fp2", Status: ckpt.StatusFailed, Error: "pathological theta"},
		{Name: "midflight", Fingerprint: "fp3", Status: ckpt.StatusPaused, Steps: 75,
			EM: wire},
		{Name: "pooled", Fingerprint: "fp4", Status: ckpt.StatusPaused, Steps: 30,
			EM: mcWire},
	} {
		if err := ckpt.Save(filepath.Join(dir, j.Name), j); err != nil {
			t.Fatal(err)
		}
	}

	out := run(t, "mpcgs", "", "-inspect", dir)
	for _, want := range []string{
		fmt.Sprintf("format v%d, 4 jobs", ckpt.FormatVersion),
		"finished", "done", "theta = 1.5", "320 sampler steps",
		"broken", "failed", "pathological theta",
		"midflight", "paused", "75 transitions", "sampler heated, 75 draws recorded",
		"trace sidecar: ",
		"ladder (adaptive, window 8",
		"pair 0-1", "pair 1-2", "swap rate",
		// One sweep records a draw per chain: 30 sweeps of 2 chains.
		"30 multichain sweeps", "sampler multichain, 60 draws recorded",
		"file " + pooledTrace + ": ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-inspect output missing %q:\n%s", want, out)
		}
	}
	// The ensemble keeps no online diagnostic: independent chains
	// alternate in its sweep-ordered stream, so an ESS of it would
	// mislead.
	_, pooled, found := strings.Cut(out, "job pooled")
	pooled, _, _ = strings.Cut(pooled, "\njob ")
	if !found || strings.Contains(pooled, "online ESS") || strings.Contains(pooled, "R-hat") {
		t.Fatalf("-inspect reports online diagnostics for a multichain job:\n%s", out)
	}
	// Pointed at one job's directory, inspect reports that job alone.
	out = run(t, "mpcgs", "", "-inspect", filepath.Join(dir, "finished"))
	if !strings.Contains(out, fmt.Sprintf("format v%d, 1 jobs", ckpt.FormatVersion)) || !strings.Contains(out, "theta = 1.5") || strings.Contains(out, "midflight") {
		t.Fatalf("-inspect of one job directory:\n%s", out)
	}
	// Inspect is read-only and refuses positional arguments.
	if out := runExpectError(t, "mpcgs", "-inspect", dir, "extra.phy", "1.0"); !strings.Contains(out, "usage") {
		t.Fatalf("inspect with positional args: %s", out)
	}
	if out := runExpectError(t, "mpcgs", "-inspect", filepath.Join(dir, "absent")); out == "" {
		t.Fatal("inspect of a missing directory succeeded")
	}
}

// TestMpcgsProfilesSurviveFailure: an exit with status 1 still stops
// every profile. A batch whose second job fails at its first step, and a
// manifest refused at load, each leave a non-empty gzipped CPU and heap
// profile and a trace that go tool trace parses.
func TestMpcgsProfilesSurviveFailure(t *testing.T) {
	dir := t.TempDir()
	writeData(t, dir, "6", "80", "81", "82")
	manifests := map[string]string{
		"failing-job": `{"defaults": {"sampler": "mh", "burnin": 20, "samples": 100, "em_iterations": 1},
  "jobs": [{"name": "ok", "phylip": "data.phy", "theta": 0.5}, {"name": "bad", "phylip": "data.phy", "theta": 1e-140}]}`,
		"refused": `{"jobs": [{"name": "x", "phylip": "data.phy", "theta": 1e-300}]}`,
	}
	for name, manifest := range manifests {
		mpath := filepath.Join(dir, name+".json")
		if err := os.WriteFile(mpath, []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		cpu, mem, tr := filepath.Join(dir, name+".cpu"), filepath.Join(dir, name+".mem"), filepath.Join(dir, name+".trace")
		out := runExpectError(t, "mpcgs", "-workers", "2", "-batch", mpath, "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr)
		for _, p := range []string{cpu, mem} {
			data, err := os.ReadFile(p)
			if err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
				t.Errorf("%s: %s is not a gzipped profile (%d bytes, %v)\n%s", name, filepath.Base(p), len(data), err, out)
			}
		}
		if parsed, err := exec.Command("go", "tool", "trace", "-d=parsed", tr).CombinedOutput(); err != nil {
			t.Errorf("%s: the trace does not parse: %v\n%s", name, err, parsed[:min(len(parsed), 400)])
		}
	}
}
