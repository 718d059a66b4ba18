// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the accuracy comparison of the serial LAMARC-style
// sampler against the parallel multiple-proposal sampler (Table 1 /
// Fig. 13), the speedup sweeps over sample count, sequence count and
// sequence length (Tables 2-4 / Figs. 14-16), the relative likelihood
// curve (Fig. 5), a burn-in trace (Fig. 2) and the multi-chain efficiency
// model (Fig. 6).
//
// Workloads follow §6.1: genealogies are simulated from the coalescent at
// a known true θ (the ms substrate), sequences are evolved along them
// under F84 (the seq-gen substrate), and both samplers estimate θ with the
// F81/empirical-frequency likelihood — preserving the simulate/infer model
// mismatch the paper identifies.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/stats"
	"mpcgs/internal/subst"
)

// Scale selects experiment sizing.
type Scale string

// Sizing presets.
const (
	// ScaleQuick shrinks workloads to finish in seconds per experiment,
	// for CI and benchmarks.
	ScaleQuick Scale = "quick"
	// ScalePaper uses the paper's workload sizes (minutes per experiment).
	ScalePaper Scale = "paper"
)

// Common bundles the knobs shared by all experiments.
type Common struct {
	Scale   Scale
	Workers int
	Seed    uint64
}

func (c Common) workers() int {
	if c.Workers <= 0 {
		return 0 // device.New treats 0 as GOMAXPROCS
	}
	return c.Workers
}

func (c Common) seed() uint64 {
	if c.Seed == 0 {
		return 20160401 // the thesis date
	}
	return c.Seed
}

// buildEvaluator assembles the F81 likelihood over a simulated dataset.
func buildEvaluator(aln *phylip.Alignment, dev *device.Device) (*felsen.Evaluator, error) {
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		return nil, err
	}
	return felsen.New(model, aln, dev)
}

// buildReference is buildEvaluator in the LAMARC reference mode
// (felsen.NewReference): every proposal is evaluated from scratch.
func buildReference(aln *phylip.Alignment, dev *device.Device) (*felsen.Evaluator, error) {
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		return nil, err
	}
	return felsen.NewReference(model, aln, dev)
}

// estimate runs the full EM estimation with the given sampler and returns
// the final θ.
func estimate(s core.StepSampler, aln *phylip.Alignment, theta0 float64, burnin, samples, emIters int, seed uint64, dev *device.Device) (float64, error) {
	init, err := core.InitialTree(aln, theta0, seed)
	if err != nil {
		return 0, err
	}
	res, err := core.RunEM(s, init, core.EMConfig{
		InitialTheta: theta0,
		Iterations:   emIters,
		Burnin:       burnin,
		Samples:      samples,
		Seed:         seed,
	}, dev)
	if err != nil {
		return 0, err
	}
	return res.Theta, nil
}

// AccuracyRow is one line of Table 1.
type AccuracyRow struct {
	TrueTheta  float64
	LAMARC     float64 // serial MH estimate, mean over replicates
	LAMARCStd  float64
	MPCGS      float64 // parallel GMH estimate, mean over replicates
	MPCGSStd   float64
	Replicates int
}

// AccuracyResult reproduces Table 1 and Fig. 13.
type AccuracyResult struct {
	Rows []AccuracyRow
	// Pearson is the correlation between the per-dataset LAMARC and
	// mpcgs estimates, the paper's accuracy criterion (r = 0.905).
	Pearson float64
}

// Accuracy runs the Table 1 / Fig. 13 experiment: for each true θ,
// simulate datasets, estimate θ with both samplers, and correlate.
func Accuracy(c Common) (*AccuracyResult, error) {
	trueThetas := []float64{0.5, 1.0, 2.0, 3.0, 4.0}
	nSeq, seqLen := 12, 200
	reps, burnin, samples, emIters := 3, 300, 2500, 3
	if c.Scale == ScalePaper {
		reps, burnin, samples, emIters = 5, 1000, 10000, 5
	}
	dev := device.New(c.workers())
	defer dev.Close()
	res := &AccuracyResult{}
	var allL, allM []float64
	for ti, trueTheta := range trueThetas {
		row := AccuracyRow{TrueTheta: trueTheta, Replicates: reps}
		var ls, ms []float64
		for rep := 0; rep < reps; rep++ {
			seed := c.seed() + uint64(ti*1000+rep)
			aln, _, err := seqgen.SimulateData(nSeq, seqLen, trueTheta, seed)
			if err != nil {
				return nil, err
			}
			eval, err := buildEvaluator(aln, dev)
			if err != nil {
				return nil, err
			}
			theta0 := trueTheta / 2 // deliberately offset start
			lam, err := estimate(core.NewMH(eval), aln, theta0, burnin, samples, emIters, seed+7, dev)
			if err != nil {
				return nil, fmt.Errorf("accuracy theta=%v rep %d (LAMARC): %w", trueTheta, rep, err)
			}
			gmh := core.NewGMH(eval, dev, dev.Workers())
			mp, err := estimate(gmh, aln, theta0, burnin, samples, emIters, seed+13, dev)
			if err != nil {
				return nil, fmt.Errorf("accuracy theta=%v rep %d (mpcgs): %w", trueTheta, rep, err)
			}
			ls = append(ls, lam)
			ms = append(ms, mp)
		}
		allL = append(allL, ls...)
		allM = append(allM, ms...)
		row.LAMARC, row.LAMARCStd = stats.Mean(ls), stats.StdDev(ls)
		row.MPCGS, row.MPCGSStd = stats.Mean(ms), stats.StdDev(ms)
		res.Rows = append(res.Rows, row)
	}
	res.Pearson = stats.Pearson(allL, allM)
	return res, nil
}

// SpeedupPoint is one row of a speedup table: the serial LAMARC-style
// sampler's wall time against the parallel sampler's for the same number
// of recorded draws.
type SpeedupPoint struct {
	Param       int // the swept parameter's value
	SerialSec   float64
	ParallelSec float64
	Speedup     float64
}

// timedRun executes one sampling pass and returns the wall time.
func timedRun(s core.StepSampler, aln *phylip.Alignment, theta float64, burnin, samples int, seed uint64) (float64, error) {
	init, err := core.InitialTree(aln, theta, seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = core.Run(s, init, core.ChainConfig{Theta: theta, Burnin: burnin, Samples: samples, Seed: seed})
	if err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// speedupPoint measures one serial-vs-parallel pair.
func speedupPoint(param int, aln *phylip.Alignment, burnin, samples int, c Common) (SpeedupPoint, error) {
	dev := device.New(c.workers())
	defer dev.Close()
	evalSerial, err := buildReference(aln, device.Serial())
	if err != nil {
		return SpeedupPoint{}, err
	}
	evalPar, err := buildEvaluator(aln, dev)
	if err != nil {
		return SpeedupPoint{}, err
	}
	theta := 1.0
	// The serial baseline is the LAMARC reference: a full from-scratch
	// likelihood per step, like the package the paper compares against.
	// (The engine's delta-evaluated MH is the fast default elsewhere.)
	tSerial, err := timedRun(core.NewMH(evalSerial), aln, theta, burnin, samples, c.seed()+3)
	if err != nil {
		return SpeedupPoint{}, err
	}
	gmh := core.NewGMH(evalPar, dev, dev.Workers())
	tPar, err := timedRun(gmh, aln, theta, burnin, samples, c.seed()+5)
	if err != nil {
		return SpeedupPoint{}, err
	}
	return SpeedupPoint{
		Param:       param,
		SerialSec:   tSerial,
		ParallelSec: tPar,
		Speedup:     tSerial / tPar,
	}, nil
}

// SpeedupVsSamples reproduces Table 2 / Fig. 14: speedup as the number of
// genealogy samples per estimation pass varies.
func SpeedupVsSamples(c Common) ([]SpeedupPoint, error) {
	counts := []int{2000, 3000, 4000, 6000, 8000, 10000}
	nSeq, seqLen, burnin := 12, 200, 200
	if c.Scale == ScalePaper {
		counts = []int{20000, 30000, 40000, 60000, 80000, 100000}
		burnin = 1000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	var out []SpeedupPoint
	for _, n := range counts {
		p, err := speedupPoint(n, aln, burnin, n, c)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SpeedupVsSequences reproduces Table 3 / Fig. 15: speedup as the number
// of sequences varies.
func SpeedupVsSequences(c Common) ([]SpeedupPoint, error) {
	counts := []int{12, 24, 36, 48}
	seqLen, burnin, samples := 200, 100, 1000
	if c.Scale == ScalePaper {
		counts = []int{12, 24, 36, 48, 60, 84, 108, 132}
		burnin, samples = 1000, 20000
	}
	var out []SpeedupPoint
	for _, n := range counts {
		aln, _, err := seqgen.SimulateData(n, seqLen, 1.0, c.seed()+uint64(n))
		if err != nil {
			return nil, err
		}
		p, err := speedupPoint(n, aln, burnin, samples, c)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SpeedupVsSeqLen reproduces Table 4 / Fig. 16: speedup as the sequence
// length varies.
func SpeedupVsSeqLen(c Common) ([]SpeedupPoint, error) {
	lengths := []int{200, 400, 600, 800, 1000}
	nSeq, burnin, samples := 12, 100, 1000
	if c.Scale == ScalePaper {
		lengths = []int{200, 400, 600, 800, 1000, 2000}
		burnin, samples = 1000, 20000
	}
	var out []SpeedupPoint
	for _, L := range lengths {
		aln, _, err := seqgen.SimulateData(nSeq, L, 1.0, c.seed()+uint64(L))
		if err != nil {
			return nil, err
		}
		p, err := speedupPoint(L, aln, burnin, samples, c)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SpeedupVsSeqLenFull runs the Fig. 16 sweep at the paper's workload
// sizes regardless of the configured scale: the committed full-scale
// trajectory EXPERIMENTS.md carries alongside the quick-scale tables.
// It is keyed separately from the quick-scale seqlen sweep everywhere
// (experiment name, table title, guard baselines), so a quick-scale CI
// run never compares itself against full-scale numbers.
func SpeedupVsSeqLenFull(c Common) ([]SpeedupPoint, error) {
	c.Scale = ScalePaper
	return SpeedupVsSeqLen(c)
}

// GMHWaveRound measures the wave-fusion acceptance points: GMH sampling
// with a fixed N = 8 proposal set on 32-taxon data at 1000bp and 4000bp,
// timing the per-candidate dispatch (each candidate's likelihood as its
// own delta evaluation — the pre-wave path, kept as GMH.PerCandidate)
// against the wave dispatch: the per-round outer-partial lift, with each
// candidate evaluated on its proposal thread or, when it is large enough
// to split, in the fused (proposal × pattern-block) grid. Both runs use
// the same seed and produce bit-identical traces, so the ratio is pure
// dispatch cost. The point reuses SpeedupPoint with SerialSec =
// per-candidate and ParallelSec = wave. 32 taxa is the design point: the
// lift amortizes the shared root path above the resimulated
// neighbourhood, which 12-taxon genealogies rarely make deep enough to
// matter.
func GMHWaveRound(c Common) ([]SpeedupPoint, error) {
	lengths := []int{1000, 4000}
	nSeq, proposals := 32, 8
	burnin, samples := 50, 400
	if c.Scale == ScalePaper {
		burnin, samples = 200, 2000
	}
	dev := device.New(c.workers())
	defer dev.Close()
	var out []SpeedupPoint
	for _, L := range lengths {
		aln, _, err := seqgen.SimulateData(nSeq, L, 1.0, c.seed()+uint64(L))
		if err != nil {
			return nil, err
		}
		eval, err := buildEvaluator(aln, dev)
		if err != nil {
			return nil, err
		}
		perCand := core.NewGMH(eval, dev, proposals)
		perCand.PerCandidate = true
		tPC, err := timedRun(perCand, aln, 1.0, burnin, samples, c.seed()+41)
		if err != nil {
			return nil, err
		}
		wave := core.NewGMH(eval, dev, proposals)
		tWave, err := timedRun(wave, aln, 1.0, burnin, samples, c.seed()+41)
		if err != nil {
			return nil, err
		}
		out = append(out, SpeedupPoint{
			Param:       L,
			SerialSec:   tPC,
			ParallelSec: tWave,
			Speedup:     tPC / tWave,
		})
	}
	return out, nil
}

// CurveResult reproduces Fig. 5: the relative log-likelihood curve from a
// single sampling pass driven far below the true θ.
type CurveResult struct {
	Thetas    []float64
	LogL      []float64
	TrueTheta float64
	Theta0    float64
	// ArgMax is the θ grid point with the highest relative likelihood.
	ArgMax float64
}

// LikelihoodCurve runs the Fig. 5 experiment: true θ = 1.0, driving
// θ0 = 0.01.
func LikelihoodCurve(c Common) (*CurveResult, error) {
	trueTheta, theta0 := 1.0, 0.01
	nSeq, seqLen, burnin, samples := 12, 200, 1000, 10000
	if c.Scale == ScalePaper {
		burnin, samples = 2000, 20000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, trueTheta, c.seed())
	if err != nil {
		return nil, err
	}
	dev := device.New(c.workers())
	defer dev.Close()
	eval, err := buildEvaluator(aln, dev)
	if err != nil {
		return nil, err
	}
	init, err := core.InitialTree(aln, theta0, c.seed())
	if err != nil {
		return nil, err
	}
	gmh := core.NewGMH(eval, dev, dev.Workers())
	run, err := core.Run(gmh, init, core.ChainConfig{Theta: theta0, Burnin: burnin, Samples: samples, Seed: c.seed() + 17})
	if err != nil {
		return nil, err
	}
	res := &CurveResult{TrueTheta: trueTheta, Theta0: theta0}
	// Log-spaced grid from theta0/2 to 10x the truth.
	for x := theta0 / 2; x <= 10*trueTheta; x *= 1.15 {
		res.Thetas = append(res.Thetas, x)
	}
	res.LogL = core.Curve(run.Samples, res.Thetas, dev)
	best := 0
	for i, v := range res.LogL {
		if v > res.LogL[best] {
			best = i
		}
	}
	res.ArgMax = res.Thetas[best]
	return res, nil
}

// BurninResult reproduces Fig. 2: the chain's data log-likelihood trace
// from a cold start, showing convergence to the stationary regime.
type BurninResult struct {
	Trace []float64
}

// BurninTrace runs the Fig. 2 experiment. The chain starts from a random
// coalescent genealogy that ignores the data entirely — the "randomly
// selected state [with] a very low probability" of §2.3 — so the trace
// shows the characteristic climb into the stationary regime.
func BurninTrace(c Common) (*BurninResult, error) {
	nSeq, seqLen, draws := 12, 200, 2000
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	eval, err := buildEvaluator(aln, device.Serial())
	if err != nil {
		return nil, err
	}
	src := rng.NewStreamSet(1, c.seed()+29).Stream(0)
	init, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
	if err != nil {
		return nil, err
	}
	run, err := core.Run(core.NewMH(eval), init, core.ChainConfig{Theta: 1.0, Burnin: 0, Samples: draws, Seed: c.seed() + 23})
	if err != nil {
		return nil, err
	}
	return &BurninResult{Trace: run.Samples.LogLik}, nil
}

// MultichainPoint is one row of the Fig. 6 reproduction: at parallelism P,
// the measured wall time of P independent chains (each paying burn-in B
// for its share of the samples) against the GMH sampler on P workers, plus
// the analytic work model.
type MultichainPoint struct {
	P             int
	MultichainSec float64
	GMHSec        float64
	// ModelWork is the Amdahl work model (B + N/P) / (B + N): the
	// fraction of single-chain time the multichain approach needs, which
	// saturates at B/(B+N).
	ModelWork float64
}

// MultichainEfficiency runs the Fig. 6 experiment. The workload follows
// the figure's setting: burn-in comparable to the sampling budget, so the
// per-chain burn-in genuinely dominates the multichain wall time at
// higher parallelism.
func MultichainEfficiency(c Common) ([]MultichainPoint, error) {
	nSeq, seqLen := 12, 400
	burnin, samples := 1500, 1500
	if c.Scale == ScalePaper {
		burnin, samples = 5000, 5000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	var out []MultichainPoint
	maxP := c.workers()
	if maxP == 0 {
		maxP = runtime.GOMAXPROCS(0)
	}
	// Each parallelism point gets its own device, torn down before the
	// next point so earlier pools' workers cannot pollute later timings.
	point := func(p int) (MultichainPoint, error) {
		dev := device.New(p)
		defer dev.Close()
		// The historical LAMARC-chain measurement: every chain evaluates
		// each proposal from scratch.
		evalSerial, err := buildReference(aln, device.Serial())
		if err != nil {
			return MultichainPoint{}, err
		}
		tMC, err := timedRun(core.NewMultiChain(evalSerial, dev, p), aln, 1.0, burnin, samples, c.seed()+31)
		if err != nil {
			return MultichainPoint{}, err
		}
		evalPar, err := buildEvaluator(aln, dev)
		if err != nil {
			return MultichainPoint{}, err
		}
		gmh := core.NewGMH(evalPar, dev, p)
		tGMH, err := timedRun(gmh, aln, 1.0, burnin, samples, c.seed()+37)
		if err != nil {
			return MultichainPoint{}, err
		}
		return MultichainPoint{
			P:             p,
			MultichainSec: tMC,
			GMHSec:        tGMH,
			ModelWork:     (float64(burnin) + float64(samples)/float64(p)) / float64(burnin+samples),
		}, nil
	}
	for p := 1; p <= maxP; p *= 2 {
		pt, err := point(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
