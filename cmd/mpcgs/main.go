// Command mpcgs estimates the population parameter θ = 2·N_e·μ from a
// PHYLIP alignment using the multiple-proposal coalescent genealogy
// sampler.
//
// Usage matches the paper's entry point (§5.1.1):
//
//	mpcgs [flags] <seqdata.phy> <initial-theta>
//
// The sequence data must be PHYLIP-formatted; the initial θ estimate may
// be any positive number — the estimator is designed to be insensitive to
// it.
//
// Every estimation is a job of the multi-tenant scheduler
// (internal/sched): a single run is a batch of one job, named by its
// data file, and batch mode estimates many independent datasets in one
// process over a single shared device pool:
//
//	mpcgs -batch jobs.json
//
// where jobs.json is a manifest of per-job phylip files and settings
// (see internal/sched.Manifest for the format). Each job's result is
// identical to running it alone with the same seed. A batch takes every
// job setting from its manifest: the per-job flags (-sampler, -seed,
// -growth, ...) are refused next to -batch.
//
// Checkpointing makes long estimations restartable in both modes:
//
//	mpcgs -checkpoint ckpt/ -checkpoint-every 5000 seqs.phy 1.0
//	mpcgs -batch jobs.json -checkpoint ckpt/
//	mpcgs -batch jobs.json -resume ckpt/
//
// -checkpoint writes a versioned snapshot of every run into its own
// subdirectory of the directory (named by the job) each N transitions
// and on SIGINT (the interrupt triggers one final consistent snapshot
// before exit). -resume restarts from such a directory: finished jobs
// are skipped, interrupted ones continue from their snapshot with traces
// bit-identical to a run that was never stopped. Resuming implies
// continued checkpointing into the same directory, so -resume takes no
// -checkpoint of another directory. -growth and -curve are computed from
// the final pass's draws, so they refuse a resumed job that had already
// finished.
//
//	mpcgs -inspect ckpt/
//
// prints every job's status from a checkpoint directory (or from one
// job's subdirectory) — progress, estimates, trace-sidecar state
// (durable draws, online ESS/R-hat), and the temperature ladder of
// paused heated runs — without resuming anything.
//
// Convergence auto-stop ends each sampling pass early once the online
// diagnostics reach declared targets, freeing workers for the rest of
// the batch:
//
//	mpcgs -ess-target 200 -rhat-target 1.05 seqs.phy 1.0
//
// (per-job ess_target/rhat_target fields do the same in batch manifests
// and the mpcgsd job API).
//
// The heated (MC³) sampler's ladder is tuned with -chains, -max-temp,
// -swap-every and, for hard posteriors, -adapt-ladder: during burn-in
// the ladder's interior temperatures are retuned toward uniform
// per-adjacent-pair swap acceptance (tracked over -swap-window
// attempts), then frozen so the recorded draws target fixed
// distributions. A per-pair swap-rate report is printed after heated
// runs.
//
// -bayesian samples the joint posterior of θ and the genealogy instead
// (mpcgs.RunBayesian); it reads only -model, -burnin, -samples and -seed
// of the job flags and is not checkpointable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"mpcgs"
	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
	"mpcgs/internal/sched"
	sidecar "mpcgs/internal/trace"
)

func main() {
	var (
		sampler    = flag.String("sampler", "gmh", "sampling algorithm: gmh, mh, multichain, or heated")
		model      = flag.String("model", "f81", "likelihood model: f81, jc69, or f84")
		workers    = flag.Int("workers", 0, "device parallelism (0 = all cores)")
		proposals  = flag.Int("proposals", 0, "GMH proposal-set size N (0 = workers)")
		chains     = flag.Int("chains", 0, "heated/multichain chain count (0 = workers)")
		maxTemp    = flag.Float64("max-temp", 0, "heated ladder's hottest temperature, at least 1 (0 = 8)")
		swapEvery  = flag.Int("swap-every", 0, "within-chain steps between heated swap attempts (0 = 1)")
		adapt      = flag.Bool("adapt-ladder", false, "adapt the heated temperature ladder toward uniform per-pair swap rates during burn-in, then freeze it")
		swapWindow = flag.Int("swap-window", 0, "sliding-window size for per-pair swap-rate tracking (0 = 64)")
		essTarget  = flag.Float64("ess-target", 0, "end each sampling pass once the online effective sample size reaches this target (0 = off)")
		rhatTarget = flag.Float64("rhat-target", 0, "additionally require the online split R-hat to fall to this target, must exceed 1 (0 = off)")
		burnin     = flag.Int("burnin", 1000, "burn-in draws per EM iteration")
		samples    = flag.Int("samples", 10000, "recorded draws per EM iteration")
		emIters    = flag.Int("em-iterations", 10, "maximum EM iterations")
		seed       = flag.Uint64("seed", 1, "PRNG seed")
		curve      = flag.Bool("curve", false, "print the relative log-likelihood curve")
		growth     = flag.Bool("growth", false, "also estimate an exponential growth rate g")
		bayesian   = flag.Bool("bayesian", false, "sample the posterior of theta instead of maximizing (LAMARC 2.0's Bayesian mode)")
		batch      = flag.String("batch", "", "run a batch manifest of estimation jobs over one shared device pool instead of a single estimation")
		ckptDir    = flag.String("checkpoint", "", "write periodic checkpoints into this directory (restart with -resume)")
		ckptEvery  = flag.Int("checkpoint-every", 1000, "sampler transitions between checkpoint snapshots per job")
		resumeDir  = flag.String("resume", "", "resume from the checkpoint in this directory (implies -checkpoint into it)")
		inspectDir = flag.String("inspect", "", "print per-job status from the checkpoint in this directory and exit (no resume)")
		quiet      = flag.Bool("q", false, "print only the final estimate")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		tracePath  = flag.String("trace", "", "write a runtime/trace of the run to this file (inspect with go tool trace)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpcgs [flags] <seqdata.phy> <initial-theta>\n")
		fmt.Fprintf(os.Stderr, "       mpcgs [flags] -batch <manifest.json>\n")
		fmt.Fprintf(os.Stderr, "       mpcgs -inspect <checkpoint-dir>\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("-trace: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fatalf("-trace: %v", err)
		}
		defer trace.Stop()
	}
	defer writeMemProfile(*memProfile)
	// A flag its mode would silently drop is a spec bug, the same rule
	// the manifest loader enforces: a batch takes its job settings from
	// the manifest, and the Bayesian chain reads only some of them.
	flag.Visit(func(f *flag.Flag) {
		field, perJob := jobFlags[f.Name]
		switch {
		case *batch != "" && perJob && field == "":
			fatalf("-%s applies only to a single estimation, not to -batch", f.Name)
		case *batch != "" && perJob:
			fatalf("-%s does not apply to -batch; set %s per job in the manifest", f.Name, field)
		case *bayesian && (perJob || f.Name == "checkpoint" || f.Name == "resume") && !bayesianFlags[f.Name]:
			fatalf("-%s does not apply to -bayesian, which reads only -model, -burnin, -samples and -seed", f.Name)
		}
	})
	if *chains != 0 && *sampler != "heated" && *sampler != "multichain" {
		fatalf("-chains is only meaningful with -sampler heated or multichain (got %q)", *sampler)
	}
	if *inspectDir != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		if err := inspect(os.Stdout, *inspectDir); err != nil {
			fatalf("%v", err)
		}
		return
	}
	// Resuming continues checkpointing into the same directory, so a
	// second interruption is just another resume.
	if *resumeDir != "" {
		if *ckptDir != "" && filepath.Clean(*ckptDir) != filepath.Clean(*resumeDir) {
			fatalf("-resume %s checkpoints into the directory it resumes from; drop -checkpoint %s", *resumeDir, *ckptDir)
		}
		*ckptDir = *resumeDir
	}
	if *batch != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		jobs, err := sched.LoadManifest(*batch)
		if err != nil {
			fatalf("%v", err)
		}
		runBatch(jobs, *workers, *ckptDir, *ckptEvery, *resumeDir != "", *quiet, nil)
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	theta0, err := strconv.ParseFloat(flag.Arg(1), 64)
	if err != nil {
		fatalf("initial theta %q must be a positive number", flag.Arg(1))
	}
	if *bayesian {
		aln, err := mpcgs.LoadAlignment(path)
		if err != nil {
			fatalf("%v", err)
		}
		if !*quiet {
			fmt.Printf("mpcgs: %d sequences x %d bp, sampler=%s model=%s\n",
				aln.NSeq(), aln.SeqLen(), *sampler, *model)
		}
		res, err := mpcgs.RunBayesian(mpcgs.Config{
			Alignment:    aln,
			InitialTheta: theta0,
			Model:        mpcgs.ModelKind(*model),
			Workers:      *workers,
			Burnin:       *burnin,
			Samples:      *samples,
			Seed:         *seed,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("posterior theta: mean %.6g, median %.6g, 95%% CI [%.6g, %.6g]\n",
			res.PosteriorMean, res.PosteriorMedian, res.CredibleLow, res.CredibleHigh)
		return
	}
	aln, err := phylip.Load(path)
	if err != nil {
		fatalf("%v", err)
	}
	// A single estimation is a batch of one job, named by its data file
	// (like a manifest entry without a name) so that a resume of the same
	// invocation finds its checkpoint.
	job := sched.Job{
		Name:         strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)),
		Alignment:    aln,
		InitialTheta: theta0,
		Sampler:      *sampler,
		Model:        *model,
		Proposals:    *proposals,
		Chains:       *chains,
		MaxTemp:      *maxTemp,
		SwapEvery:    *swapEvery,
		AdaptLadder:  *adapt,
		SwapWindow:   *swapWindow,
		Burnin:       *burnin,
		Samples:      *samples,
		EMIterations: *emIters,
		Seed:         *seed,
		ESSTarget:    *essTarget,
		RHatTarget:   *rhatTarget,
	}
	if !*quiet {
		note := ""
		if *ckptDir != "" {
			note = fmt.Sprintf(" (checkpointing to %s)", *ckptDir)
		}
		fmt.Printf("mpcgs: %d sequences x %d bp, sampler=%s model=%s%s\n",
			aln.NSeq(), aln.SeqLen(), *sampler, *model, note)
	}
	runBatch([]sched.Job{job}, *workers, *ckptDir, *ckptEvery, *resumeDir != "", *quiet, func(r sched.Result) {
		if (*growth || *curve) && r.LastSet == nil {
			fatalf("-growth and -curve need the final pass's draws, and a job that had already finished when it was resumed no longer has them; rerun it without -resume")
		}
		printEstimate(r, *quiet)
		if !*growth && !*curve {
			return
		}
		dev := device.New(*workers)
		defer dev.Close()
		if *growth {
			est, err := core.MaximizeThetaGrowth(r.LastSet, core.MLEConfig{}, dev)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("growth: theta = %.6g, g = %.6g\n", est.Theta, est.Growth)
		}
		if *curve {
			var grid []float64
			for x := r.Theta / 20; x <= r.Theta*20; x *= 1.25 {
				grid = append(grid, x)
			}
			vals := core.Curve(r.LastSet, grid, dev)
			fmt.Println("\n  theta        log L(theta)")
			for i, x := range grid {
				fmt.Printf("  %-12.5g %.4f\n", x, vals[i])
			}
		}
	})
}

// jobFlags maps every per-job flag to the batch-manifest field that
// carries the same setting; the single-run options with no manifest
// form map to "".
var jobFlags = map[string]string{
	"sampler": "sampler", "model": "model", "proposals": "proposals", "chains": "chains",
	"max-temp": "max_temp", "swap-every": "swap_every", "adapt-ladder": "adapt_ladder", "swap-window": "swap_window",
	"ess-target": "ess_target", "rhat-target": "rhat_target",
	"burnin": "burnin", "samples": "samples", "em-iterations": "em_iterations", "seed": "seed",
	"growth": "", "curve": "", "bayesian": "",
}

// bayesianFlags are the job flags the Bayesian joint-posterior chain
// reads.
var bayesianFlags = map[string]bool{"bayesian": true, "model": true, "burnin": true, "samples": true, "seed": true}

// runBatch is the scheduler mode every estimation runs in: every job
// multiplexes over one shared device pool, SIGINT cancels the batch
// cleanly (writing a final consistent checkpoint when checkpointing is
// on), and resume restores job state from a previous invocation's
// checkpoint directory. A single estimation passes the printer of its
// report as single; a manifest's batch (single nil) prints one line per
// job between a header and a throughput summary.
func runBatch(jobs []sched.Job, workers int, ckptDir string, ckptEvery int, resume, quiet bool, single func(sched.Result)) {
	opts := sched.Options{
		Checkpoint: sched.CheckpointOptions{Dir: ckptDir, Every: ckptEvery},
		Resume:     resume,
	}
	pool := device.NewPool(workers)
	defer pool.Close()
	if !quiet && single == nil {
		fmt.Printf("mpcgs: batch of %d jobs over %d shared workers\n", len(jobs), pool.Workers())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, err := sched.RunBatch(ctx, pool, jobs, opts)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcgs: batch aborted: %v\n", err)
		if ckptDir != "" && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "mpcgs: checkpoint written; resume with -resume %s\n", ckptDir)
		}
	}
	failed := 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			failed++
			fmt.Printf("job %-16s FAILED: %v\n", r.Name, r.Err)
		case single != nil:
			single(r)
		default:
			note := ""
			if r.Resumed {
				note = " [restored from checkpoint]"
			}
			if r.Converged {
				note += " [converged early]"
			}
			fmt.Printf("job %-16s theta = %-10.6g (%d EM iterations, %d steps)%s\n",
				r.Name, r.Theta, len(r.History), r.Steps, note)
		}
	}
	if !quiet && single == nil {
		fmt.Printf("batch: %d ok, %d failed in %.2fs (%.2f jobs/s)\n",
			len(results)-failed, failed, wall.Seconds(), float64(len(results))/wall.Seconds())
	}
	if err != nil || failed > 0 {
		os.Exit(1)
	}
}

// printEstimate prints a single estimation's report: the EM trajectory,
// the final pass's convergence diagnostics, the heated sampler's swap
// report and any auto-stop (all but the estimate are dropped by quiet),
// then the estimate. A job restored finished from its checkpoint has no
// final pass to diagnose.
func printEstimate(r sched.Result, quiet bool) {
	if !quiet {
		for i, h := range r.History {
			fmt.Printf("  EM %2d: theta %.6g -> %.6g  (acceptance %.3f, mean logL %.2f)\n",
				i+1, h.ThetaIn, h.ThetaOut, h.AcceptanceRate, h.MeanLogLik)
		}
		if r.LastSet != nil {
			d := core.Diagnose(r.LastSet)
			fmt.Printf("  diagnostics: ESS %.0f, Geweke z %.2f, suggested burn-in %d (sufficient: %v)\n",
				d.ESS, d.GewekeZ, d.SuggestedBurnin, d.BurninSufficient)
		}
		if run := r.LastRun; run != nil {
			if len(run.PairSwapAttempts) > 0 {
				printSwapReport(run.Betas, run.EstPairSwapAttempts, run.EstPairSwaps, run.LadderAdapted, run.LadderAdaptations)
			}
			if run.StoppedEarly {
				fmt.Printf("  auto-stop: final pass ended early at online ESS %.1f, R-hat %.3f\n", run.StopESS, run.StopRHat)
			}
		}
	}
	fmt.Printf("theta = %.6g\n", r.Theta)
}

// printSwapReport renders the heated sampler's per-pair swap-rate
// profile: one line per adjacent rung pair with its temperatures and the
// fraction of proposed exchanges that were accepted. Uniform rates mean
// the ladder's rungs are pulling their weight; a near-zero pair marks a
// temperature gap states cannot cross.
func printSwapReport(betas []float64, attempts, accepts []int64, adapted bool, adaptations int64) {
	kind := "geometric"
	if adapted {
		kind = fmt.Sprintf("adapted, %d updates", adaptations)
	}
	fmt.Printf("  ladder (%s, %d rungs): estimation-phase per-pair swap acceptance\n", kind, len(betas))
	rates := core.PairRates(accepts, attempts)
	for i := range attempts {
		fmt.Printf("    pair %d-%d: T %-8.4g <-> %-8.4g rate %.3f (%d/%d)\n",
			i, i+1, 1/betas[i], 1/betas[i+1], rates[i], accepts[i], attempts[i])
	}
	if adapted && adaptations == 0 {
		switch {
		case len(betas) < 3:
			fmt.Printf("    note: -adapt-ladder had nothing to do — a %d-rung ladder has no interior\n", len(betas))
			fmt.Printf("    temperature to move (both endpoints are pinned); use at least 3 chains\n")
		case betas[len(betas)-1] == 1:
			fmt.Printf("    note: -adapt-ladder had nothing to do — a flat ladder (-max-temp 1) has no\n")
			fmt.Printf("    temperature span to redistribute\n")
		default:
			fmt.Printf("    note: adaptation never engaged — the burn-in ended before every pair's\n")
			fmt.Printf("    swap window filled once; lengthen -burnin or shrink -swap-window\n")
		}
	}
}

// inspect prints every job's status from a checkpoint directory without
// resuming anything: name, state, progress, the estimate for finished
// jobs, and — for paused heated runs — the temperature ladder with its
// per-pair swap rates. dir is either one job's checkpoint directory or a
// batch's, which holds one such directory per job.
func inspect(w io.Writer, dir string) error {
	jobDirs := []string{dir}
	if _, err := os.Stat(ckpt.Path(dir)); errors.Is(err, fs.ErrNotExist) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		jobDirs = jobDirs[:0]
		for _, e := range entries {
			if e.IsDir() {
				jobDirs = append(jobDirs, filepath.Join(dir, e.Name()))
			}
		}
	}
	// Load every job before printing anything: a file this build cannot
	// read fails the whole inspection.
	jobs := make([]*ckpt.JobState, len(jobDirs))
	for i, jobDir := range jobDirs {
		j, err := ckpt.Load(jobDir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		jobs[i] = j
	}
	fmt.Fprintf(w, "checkpoint %s (format v%d, %d jobs)\n", dir, ckpt.FormatVersion, len(jobs))
	for i, j := range jobs {
		if j == nil {
			fmt.Fprintf(w, "job %-16s fresh   no snapshot yet (a resume starts it afresh)\n", filepath.Base(jobDirs[i]))
			continue
		}
		switch j.Status {
		case ckpt.StatusDone:
			fmt.Fprintf(w, "job %-16s done    theta = %-10s (%d EM iterations, %d steps)\n",
				j.Name, hexOrRaw(j.Theta), len(j.History), j.Steps)
		case ckpt.StatusFailed:
			fmt.Fprintf(w, "job %-16s failed  %s\n", j.Name, j.Error)
		case ckpt.StatusPaused:
			fmt.Fprintf(w, "job %-16s paused  EM iteration %d, driving theta = %s, %d steps, %d EM rounds done\n",
				j.Name, j.EM.It+1, hexOrRaw(j.EM.Theta), j.Steps, len(j.EM.History))
			if a := j.EM.Active; a != nil {
				drawn := 0
				if a.TraceRef != nil {
					drawn = a.TraceRef.Draws - a.TraceRef.PassDraws
				}
				fmt.Fprintf(w, "  mid-pass: sampler %s at transition %d, %d draws recorded\n",
					a.Sampler, a.Step, drawn)
				if a.TraceRef != nil {
					inspectSidecar(w, jobDirs[i], j.Name, a.TraceRef)
				}
				if a.Ladder != nil {
					inspectLadder(w, a.Ladder)
				}
			}
		}
	}
	return nil
}

// inspectSidecar renders a paused job's streaming-trace state: the
// durable offsets its snapshot pins, the online convergence diagnostics
// recorded with them, and — when the sidecar file itself is reachable —
// the file's actual frame chain, including any torn tail a crash left
// (a resume truncates it; it never corrupts the durable draws).
func inspectSidecar(w io.Writer, dir, name string, ref *ckpt.TraceRef) {
	fmt.Fprintf(w, "  trace sidecar: %d draws durable at byte offset %d (%d in the current pass)",
		ref.Draws, ref.Offset, ref.Draws-ref.PassDraws)
	if ref.ESS != "" {
		fmt.Fprintf(w, ", online ESS %s", hexOrRaw(ref.ESS))
	}
	if ref.RHat != "" {
		fmt.Fprintf(w, ", R-hat %s", hexOrRaw(ref.RHat))
	}
	if ref.Stopped {
		fmt.Fprintf(w, " — stop target reached")
	}
	fmt.Fprintln(w)
	// The checkpoint records the path the run was configured with; an
	// inspect from another working directory falls back to the sidecar's
	// canonical place inside the job's checkpoint directory.
	path := ref.Path
	if _, err := os.Stat(path); path == "" || err != nil {
		path = sched.TracePath(dir, name)
	}
	info, err := sidecar.Stat(path)
	if err != nil {
		fmt.Fprintf(w, "    file %s: unreadable (%v)\n", path, err)
		return
	}
	fmt.Fprintf(w, "    file %s: %d frames, %d draws, %d durable bytes", path, info.Frames, info.Draws, info.DurableBytes)
	if info.Torn() {
		fmt.Fprintf(w, " (+%d bytes of torn tail a resume will truncate)", info.FileBytes-info.DurableBytes)
	}
	fmt.Fprintln(w)
}

// inspectLadder renders a checkpointed temperature ladder: the schedule
// (adapted or geometric) and the per-pair swap rates it has seen.
func inspectLadder(w io.Writer, l *ckpt.Ladder) {
	kind := "geometric"
	if l.Adapt {
		kind = fmt.Sprintf("adaptive, window %d, %d updates", l.Window, l.Adapts)
	}
	fmt.Fprintf(w, "  ladder (%s): ", kind)
	for i, b := range l.Betas {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		if f, err := strconv.ParseFloat(b, 64); err == nil {
			fmt.Fprintf(w, "T%d=%.4g", i, 1/f)
		} else {
			fmt.Fprintf(w, "T%d=%s", i, b)
		}
	}
	fmt.Fprintln(w)
	rates := core.PairRates(l.Accepts, l.Attempts)
	for i := range l.Attempts {
		// The file is untrusted input: a truncated accepts array reads
		// as zero rather than crashing the inspector.
		var acc int64
		if i < len(l.Accepts) {
			acc = l.Accepts[i]
		}
		fmt.Fprintf(w, "    pair %d-%d: swap rate %.3f (%d/%d)\n", i, i+1, rates[i], acc, l.Attempts[i])
	}
}

// hexOrRaw renders a checkpoint hex-float field human-readably, falling
// back to the raw string if it does not parse.
func hexOrRaw(s string) string {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return fmt.Sprintf("%.6g", f)
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpcgs: "+format+"\n", args...)
	os.Exit(1)
}

// writeMemProfile writes a heap profile at process exit (after a GC, so
// the profile reflects live retention rather than garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("-memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatalf("-memprofile: %v", err)
	}
}
