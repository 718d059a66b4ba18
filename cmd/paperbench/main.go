// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (§6) as text tables and ASCII plots.
//
//	paperbench -experiment accuracy    # Table 1 / Fig. 13
//	paperbench -experiment samples     # Table 2 / Fig. 14
//	paperbench -experiment sequences   # Table 3 / Fig. 15
//	paperbench -experiment seqlen      # Table 4 / Fig. 16
//	paperbench -experiment curve       # Fig. 5
//	paperbench -experiment burnin      # Fig. 2
//	paperbench -experiment multichain  # Fig. 6
//	paperbench -experiment all
//
// -experiment also accepts a comma-separated list. The default -scale
// quick shrinks workloads to finish in minutes; -scale paper uses the
// paper's sizes, and -experiment seqlen-full runs the Fig. 16 sweep at
// paper scale regardless of -scale. With -md FILE the run's output is
// additionally written into FILE as a generated Markdown section, which
// is how EXPERIMENTS.md at the repository root is produced:
//
//	paperbench -experiment samples,sequences,seqlen -md EXPERIMENTS.md
//
// With -json FILE the measured speedup points are also written as a
// machine-readable snapshot — the BENCH_<pr>.json trajectory committed
// at the repository root. -compare DIR checks them against the latest
// BENCH_*.json in DIR and fails on any point below 70% of it; this is
// the speedup gate CI runs:
//
//	paperbench -experiment samples,sequences,seqlen,gmhround -scale quick -compare .
//
// -cpuprofile/-memprofile write stock pprof profiles of the run; -trace
// writes a runtime/trace for inspecting scheduler behaviour around the
// device launches.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"mpcgs/internal/device"
	"mpcgs/internal/experiments"
	"mpcgs/internal/stats"
)

// measuredSpeedups collects the speedup points of the §6 sweeps as they
// run, so -compare can check them against the committed snapshots.
var measuredSpeedups = map[string][]experiments.SpeedupPoint{}

// compareFactor is -compare's floor as a fraction of the latest
// snapshot's speedup; it absorbs runner noise.
const compareFactor = 0.7

func main() {
	var (
		experiment  = flag.String("experiment", "all", "comma-separated experiments to run (accuracy, samples, sequences, seqlen, seqlen-full, gmhround, curve, burnin, multichain, batch, autostop, tempering, proposalsize, nested, growth, all)")
		scale       = flag.String("scale", "quick", "workload sizing: quick or paper")
		workers     = flag.Int("workers", 0, "device parallelism (0 = all cores)")
		seed        = flag.Uint64("seed", 0, "PRNG seed (0 = default)")
		mdPath      = flag.String("md", "", "also write the run's output to this Markdown file as a generated section")
		jsonPath    = flag.String("json", "", "write the run's measured speedup/time points to this file as machine-readable JSON (the BENCH_*.json trajectory)")
		comparePath = flag.String("compare", "", "directory of committed BENCH_*.json snapshots (typically the repo root): print the per-experiment speedup trajectory and exit non-zero if this run regressed against the latest snapshot")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		tracePath   = flag.String("trace", "", "write a runtime/trace of the run to this file (inspect with go tool trace)")
	)
	flag.Parse()
	// Load the committed trajectory before anything runs or is written:
	// -json may write its snapshot into the -compare directory, and the
	// fresh run must never become its own baseline.
	var snaps []*experiments.BenchSnapshot
	if *comparePath != "" {
		var err error
		if snaps, err = experiments.LoadSnapshots(*comparePath); err != nil {
			fatalf("bench-trajectory: %v", err)
		}
		if len(snaps) == 0 {
			fatalf("bench-trajectory: no BENCH_*.json snapshots in %s", *comparePath)
		}
	}
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
	c := experiments.Common{
		Scale:   experiments.Scale(*scale),
		Workers: *workers,
		Seed:    *seed,
	}
	runners := map[string]func(io.Writer, experiments.Common) error{
		"accuracy":     runAccuracy,
		"samples":      runSamples,
		"sequences":    runSequences,
		"seqlen":       runSeqLen,
		"curve":        runCurve,
		"burnin":       runBurnin,
		"multichain":   runMultichain,
		"batch":        runBatch,
		"autostop":     runAutostop,
		"tempering":    runTempering,
		"proposalsize": runProposalSize,
		"nested":       runNested,
		"growth":       runGrowth,
		"seqlen-full":  runSeqLenFull,
		"gmhround":     runGMHRound,
		"service":      runService,
	}
	// seqlen-full always runs the paper-scale workload, so "all" leaves it
	// out; select it explicitly when regenerating the full-scale table.
	order := []string{
		"accuracy", "samples", "sequences", "seqlen", "gmhround", "curve",
		"burnin", "multichain", "batch", "autostop", "tempering", "service",
		"proposalsize", "nested", "growth",
	}
	var names []string
	if *experiment == "all" {
		names = order
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := runners[name]; !ok {
				fatalf("unknown experiment %q", name)
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			fatalf("no experiment selected")
		}
	}

	var buf bytes.Buffer
	var w io.Writer = os.Stdout
	if *mdPath != "" {
		w = io.MultiWriter(os.Stdout, &buf)
	}
	for _, name := range names {
		if err := runners[name](w, c); err != nil {
			fatalf("%s: %v", name, err)
		}
	}
	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, names, c, buf.Bytes()); err != nil {
			fatalf("writing %s: %v", *mdPath, err)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *mdPath)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, names, c); err != nil {
			fatalf("writing %s: %v", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *jsonPath)
	}
	if snaps != nil {
		runCompare(snaps)
	}
}

// writeJSON dumps the run's measured speedup points as an indented
// experiments.BenchSnapshot. Only experiments that measure
// serial-vs-parallel pairs contribute; a run that selected none still
// writes a valid (empty) snapshot.
func writeJSON(path string, names []string, c experiments.Common) error {
	scale := string(c.Scale)
	if scale == "" {
		scale = string(experiments.ScaleQuick)
	}
	// Record the parallelism the run actually used, not the raw flag:
	// -workers 0 means "all cores", and a snapshot that says 0 makes
	// cross-snapshot trajectory comparisons hardware-blind.
	dev := device.New(c.Workers)
	effectiveWorkers := dev.Workers()
	dev.Close()
	snap := experiments.BenchSnapshot{
		Schema:      experiments.SnapshotSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale,
		Workers:     effectiveWorkers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        c.Seed,
		Experiments: names,
		Speedups:    measuredSpeedups,
	}
	return snap.Write(path)
}

// runCompare is the CI speedup gate: print the per-experiment speedup
// trajectory across the committed BENCH_*.json snapshots, then compare
// this run's fresh measurements against the latest one and exit
// non-zero on a regression past the floor. A run that measured nothing
// comparable also fails — a check of zero points checked nothing.
func runCompare(snaps []*experiments.BenchSnapshot) {
	experiments.FormatTrajectory(os.Stdout, snaps)
	latest := snaps[len(snaps)-1]
	checked, violations := experiments.CompareSnapshot(measuredSpeedups, latest, compareFactor)
	if checked == 0 {
		fatalf("bench-trajectory: no measured point matched %s (run an experiment the snapshot covers, e.g. seqlen)", latest.File)
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "bench-trajectory: FAIL %s\n", v)
	}
	if len(violations) > 0 {
		fatalf("bench-trajectory: %d of %d points regressed past %.0f%% of %s", len(violations), checked, compareFactor*100, latest.File)
	}
	fmt.Printf("bench-trajectory: OK, %d points within %.0f%% of %s across %d snapshots\n",
		checked, compareFactor*100, latest.File, len(snaps))
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

// writeMarkdown renders the captured run as a generated Markdown document:
// the reproducible command line followed by the verbatim tables and plots.
func writeMarkdown(path string, names []string, c experiments.Common, body []byte) error {
	scale := string(c.Scale)
	if scale == "" {
		scale = string(experiments.ScaleQuick)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "# EXPERIMENTS\n\n")
	fmt.Fprintf(&out, "<!-- Generated by cmd/paperbench; regenerate instead of editing. -->\n\n")
	fmt.Fprintf(&out, "Measured reproduction of the paper's §6 evaluation on this machine.\n")
	cmd := fmt.Sprintf("go run ./cmd/paperbench -experiment %s -scale %s",
		strings.Join(names, ","), scale)
	if c.Workers != 0 {
		cmd += fmt.Sprintf(" -workers %d", c.Workers)
	}
	if c.Seed != 0 {
		cmd += fmt.Sprintf(" -seed %d", c.Seed)
	}
	fmt.Fprintf(&out, "Regenerate with:\n\n")
	fmt.Fprintf(&out, "    %s -md %s\n\n", cmd, path)
	fmt.Fprintf(&out, "The body below is the verbatim paperbench report for the selected\n")
	fmt.Fprintf(&out, "experiments. Where a table compares \"serial\" against \"parallel\", the\n")
	fmt.Fprintf(&out, "serial side is the LAMARC reference sampler (full likelihood\n")
	fmt.Fprintf(&out, "recomputation per step) and the parallel side is the GMH sampler with\n")
	fmt.Fprintf(&out, "delta evaluation on the device pool; a \"paper\" column gives the\n")
	fmt.Fprintf(&out, "corresponding figure's published value where one exists.\n\n")
	fmt.Fprintf(&out, "```text\n")
	out.Write(body)
	fmt.Fprintf(&out, "```\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

func runAccuracy(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Table 1 / Figure 13: theta-estimation accuracy, LAMARC (serial MH) vs mpcgs (GMH) ===")
	res, err := experiments.Accuracy(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-10s %-12s %-10s %-12s\n", "True", "LAMARC", "LAMARC SD", "mpcgs", "mpcgs SD")
	pts := map[string][]stats.Point{}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-8.2f %-10.3f %-12.3f %-10.3f %-12.3f\n",
			r.TrueTheta, r.LAMARC, r.LAMARCStd, r.MPCGS, r.MPCGSStd)
		pts["LAMARC"] = append(pts["LAMARC"], stats.Point{X: r.TrueTheta, Y: r.LAMARC})
		pts["mpcgs"] = append(pts["mpcgs"], stats.Point{X: r.TrueTheta, Y: r.MPCGS})
		pts["y=x"] = append(pts["y=x"], stats.Point{X: r.TrueTheta, Y: r.TrueTheta})
	}
	fmt.Fprintf(w, "Pearson r (LAMARC vs mpcgs estimates) = %.3f   [paper: 0.905]\n\n", res.Pearson)
	fmt.Fprintln(w, stats.AsciiPlot("Figure 13: estimated theta vs true theta",
		"true theta", "estimate", pts, 56, 16))
	return nil
}

func printSpeedup(w io.Writer, title, param string, pts []experiments.SpeedupPoint, paperVals []float64) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	fmt.Fprintf(w, "%-10s %-12s %-14s %-10s %-12s\n", param, "serial (s)", "parallel (s)", "speedup", "paper")
	plot := map[string][]stats.Point{}
	for i, p := range pts {
		paper := "-"
		if i < len(paperVals) {
			paper = fmt.Sprintf("%.2f", paperVals[i])
		}
		fmt.Fprintf(w, "%-10d %-12.3f %-14.3f %-10.2f %-12s\n",
			p.Param, p.SerialSec, p.ParallelSec, p.Speedup, paper)
		plot["measured"] = append(plot["measured"], stats.Point{X: float64(p.Param), Y: p.Speedup})
		if i < len(paperVals) {
			plot["paper"] = append(plot["paper"], stats.Point{X: float64(p.Param), Y: paperVals[i]})
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, stats.AsciiPlot(title, param, "speedup", plot, 56, 14))
}

func runSamples(w io.Writer, c experiments.Common) error {
	pts, err := experiments.SpeedupVsSamples(c)
	if err != nil {
		return err
	}
	measuredSpeedups["samples"] = pts
	printSpeedup(w, "Table 2 / Figure 14: speedup vs number of genealogy samples",
		"samples", pts, []float64{3.69, 3.8, 3.95, 4.19, 4.27, 4.32})
	return nil
}

func runSequences(w io.Writer, c experiments.Common) error {
	pts, err := experiments.SpeedupVsSequences(c)
	if err != nil {
		return err
	}
	measuredSpeedups["sequences"] = pts
	printSpeedup(w, "Table 3 / Figure 15: speedup vs number of sequences",
		"sequences", pts, []float64{3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83})
	return nil
}

func runSeqLen(w io.Writer, c experiments.Common) error {
	pts, err := experiments.SpeedupVsSeqLen(c)
	if err != nil {
		return err
	}
	measuredSpeedups["seqlen"] = pts
	printSpeedup(w, "Table 4 / Figure 16: speedup vs sequence length",
		"bp", pts, []float64{3.69, 5.67, 7.86, 10.22, 12.63, 23.28})
	return nil
}

func runSeqLenFull(w io.Writer, c experiments.Common) error {
	pts, err := experiments.SpeedupVsSeqLenFull(c)
	if err != nil {
		return err
	}
	measuredSpeedups["seqlen-full"] = pts
	printSpeedup(w, "Figure 16 trajectory: sequence-length sweep at paper scale",
		"bp", pts, []float64{3.69, 5.67, 7.86, 10.22, 12.63, 23.28})
	return nil
}

func runGMHRound(w io.Writer, c experiments.Common) error {
	pts, err := experiments.GMHWaveRound(c)
	if err != nil {
		return err
	}
	measuredSpeedups["gmhround"] = pts
	printSpeedup(w, "GMH round dispatch: fused wave rounds vs per-candidate dispatch",
		"bp", pts, nil)
	fmt.Fprintln(w, "here \"serial\" is the per-candidate GMH dispatch (one delta evaluation")
	fmt.Fprintln(w, "per candidate) and \"parallel\" the fused (proposal x block) wave grid")
	fmt.Fprintln(w, "with the per-round outer-partial lift; both runs are bit-identical, so")
	fmt.Fprintln(w, "the speedup is pure dispatch cost (32 taxa, N=8 proposals).")
	fmt.Fprintln(w)
	return nil
}

func runBatch(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Batch mode: multi-tenant scheduler throughput vs back-to-back runs ===")
	pts, err := experiments.BatchThroughput(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-12s %-12s %-14s %-14s %-10s\n",
		"jobs", "serial (s)", "batch (s)", "serial jobs/s", "batch jobs/s", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-12.3f %-12.3f %-14.2f %-14.2f %-10.2f\n",
			p.Jobs, p.SerialSec, p.BatchSec, p.SerialJobsPerS, p.BatchJobsPerS, p.Speedup)
	}
	fmt.Fprintln(w)
	return nil
}

func runService(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Service mode: mpcgsd synthetic many-client throughput and latency ===")
	pts, err := experiments.ServiceThroughput(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-6s %-10s %-10s %-10s %-10s\n",
		"clients", "jobs", "wall (s)", "jobs/s", "p50 (ms)", "p95 (ms)")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8d %-6d %-10.3f %-10.2f %-10.0f %-10.0f\n",
			p.Clients, p.Jobs, p.WallSec, p.JobsPerSec, p.P50Ms, p.P95Ms)
	}
	fmt.Fprintln(w, "each client submits jobs over HTTP and polls to completion; jobs are")
	fmt.Fprintln(w, "the batch experiment's quick-scale workload, so the delta against the")
	fmt.Fprintln(w, "batch rows is the cost of the HTTP shell and the durable job journal.")
	fmt.Fprintln(w)
	return nil
}

func runAutostop(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Auto-stop: ESS-target batches vs fixed-length equivalents ===")
	pts, err := experiments.AutostopThroughput(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-11s %-11s %-12s %-12s %-10s %-12s %-12s %-8s\n",
		"jobs", "fixed (s)", "target (s)", "fixed steps", "tgt steps", "converged", "hard fixed", "hard target", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-11.3f %-11.3f %-12d %-12d %-10d %-12.2f %-12.2f %-8.2f\n",
			p.Jobs, p.FixedSec, p.TargetSec, p.FixedSteps, p.TargetSteps, p.Converged,
			p.HardShareFixed, p.HardShareTarget, p.Speedup)
	}
	fmt.Fprintln(w, "every job but the last declares an ESS target; \"hard\" columns are the")
	fmt.Fprintln(w, "no-target job's busy time as a fraction of batch wall time — its rise in")
	fmt.Fprintln(w, "the target-driven batch is the freed workers being reallocated to it.")
	fmt.Fprintln(w)

	dir, err := os.MkdirTemp("", "mpcgs-ckptsize")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sizes, err := experiments.CheckpointSizes(c, dir)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "--- Checkpoint size vs samples recorded (the O(interval) claim) ---")
	fmt.Fprintf(w, "%-10s %-16s %-14s\n", "samples", "sidecar ckpt (B)", "sidecar (B)")
	for _, p := range sizes {
		fmt.Fprintf(w, "%-10d %-16d %-14d\n", p.Samples, p.SidecarBytes, p.TraceBytes)
	}
	fmt.Fprintln(w, "the sidecar grows O(run); the checkpoint stays O(interval) — the draws")
	fmt.Fprintln(w, "live in the sidecar file, the checkpoint keeps a durable offset.")
	fmt.Fprintln(w)
	return nil
}

func runTempering(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Adaptive MC3: swap-rate-driven temperature ladder vs fixed geometric ===")
	pts, err := experiments.TemperingComparison(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-10s %-10s %-12s %-10s\n", "ladder", "spread", "cold ESS", "swaps", "rate")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %-10.3f %-10.0f %-12s %-10.3f\n",
			p.Mode, p.Spread, p.ColdESS,
			fmt.Sprintf("%d/%d", p.Swaps, p.SwapAttempts),
			float64(p.Swaps)/float64(p.SwapAttempts))
		for i := range p.Rates {
			fmt.Fprintf(w, "  pair %d-%d: T %-9.4g <-> %-9.4g swap rate %.3f\n",
				i, i+1, 1/p.Betas[i], 1/p.Betas[i+1], p.Rates[i])
		}
	}
	fmt.Fprintln(w, "spread = max-min of per-pair swap acceptance; the adaptive ladder's")
	fmt.Fprintln(w, "objective is to drive it toward 0 without losing cold-chain ESS.")
	fmt.Fprintln(w)
	return nil
}

func runCurve(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Figure 5: relative likelihood curve (true theta 1.0, driving theta0 0.01) ===")
	res, err := experiments.LikelihoodCurve(c)
	if err != nil {
		return err
	}
	pts := map[string][]stats.Point{}
	for i, th := range res.Thetas {
		pts["log L(theta)"] = append(pts["log L(theta)"], stats.Point{X: th, Y: res.LogL[i]})
	}
	fmt.Fprintln(w, stats.AsciiPlot("Figure 5: log relative likelihood over theta",
		"theta", "log L", pts, 64, 18))
	fmt.Fprintf(w, "curve maximum near theta = %.3g (true 1.0, driving 0.01)\n\n", res.ArgMax)
	return nil
}

func runBurnin(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Figure 2: chain burn-in trace (data log-likelihood per draw) ===")
	res, err := experiments.BurninTrace(c)
	if err != nil {
		return err
	}
	pts := map[string][]stats.Point{}
	for i, v := range res.Trace {
		pts["log P(D|G)"] = append(pts["log P(D|G)"], stats.Point{X: float64(i), Y: v})
	}
	fmt.Fprintln(w, stats.AsciiPlot("Figure 2: burn-in trace", "draw", "log P(D|G)", pts, 64, 18))
	ess := stats.EffectiveSampleSize(res.Trace[len(res.Trace)/2:])
	fmt.Fprintf(w, "post-burn-in effective sample size over %d draws: %.0f\n\n", len(res.Trace)/2, ess)
	return nil
}

func runMultichain(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Figure 6: multi-chain burn-in inefficiency vs GMH ===")
	pts, err := experiments.MultichainEfficiency(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-16s %-12s %-22s\n", "P", "multichain (s)", "GMH (s)", "Amdahl model (B+N/P)/(B+N)")
	plot := map[string][]stats.Point{}
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-16.3f %-12.3f %-22.3f\n", p.P, p.MultichainSec, p.GMHSec, p.ModelWork)
		plot["multichain"] = append(plot["multichain"], stats.Point{X: float64(p.P), Y: p.MultichainSec})
		plot["gmh"] = append(plot["gmh"], stats.Point{X: float64(p.P), Y: p.GMHSec})
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, stats.AsciiPlot("Figure 6: wall time vs parallelism", "P", "seconds", plot, 56, 14))
	return nil
}

func runProposalSize(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Ablation: GMH proposal-set size N (paper §7 tuning question) ===")
	pts, err := experiments.ProposalSetSize(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-10s %-12s %-10s %-12s\n", "N", "wall (s)", "move rate", "ESS", "ESS/s")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-10.3f %-12.3f %-10.0f %-12.0f\n", p.N, p.Sec, p.MoveRate, p.ESS, p.ESSPerSec)
	}
	fmt.Fprintln(w)
	return nil
}

func runNested(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Ablation: dynamic parallelism (per-proposal site kernels, paper §4.4) ===")
	pts, err := experiments.NestedParallelism(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-12s %-12s %-10s\n", "N", "flat (s)", "nested (s)", "nested/flat")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-12.3f %-12.3f %-10.2f\n", p.N, p.FlatSec, p.NestedSec, p.NestedSec/p.FlatSec)
	}
	fmt.Fprintln(w)
	return nil
}

func runGrowth(w io.Writer, c experiments.Common) error {
	fmt.Fprintln(w, "=== Extension (paper §7): two-parameter estimation (theta, growth) ===")
	pts, err := experiments.GrowthEstimation(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "true g", "theta-hat", "g-hat")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12.1f %-12.3f %-12.3f\n", p.TrueGrowth, p.Theta, p.Growth)
	}
	fmt.Fprintln(w)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperbench: "+format+"\n", args...)
	os.Exit(1)
}
