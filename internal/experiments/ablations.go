package experiments

import (
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/mssim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/stats"
)

// Ablations for the tuning questions the paper's §7 leaves open:
// "additional optimization will take the form of tuning various
// parameters such as the size of the proposal set that Calderhead's
// method produces and the block size of the data likelihood kernel".

// ProposalSizePoint measures the GMH sampler at one proposal-set size N.
type ProposalSizePoint struct {
	N int
	// Sec is the wall time for the fixed sampling workload.
	Sec float64
	// MoveRate is the fraction of index draws that changed state: larger
	// proposal sets explore more per round.
	MoveRate float64
	// ESS is the effective sample size of the post-burn-in trace of the
	// sufficient statistic S: wall-clock cost must be weighed against
	// sampling quality.
	ESS float64
	// ESSPerSec is the headline efficiency measure.
	ESSPerSec float64
}

// ProposalSetSize sweeps the GMH proposal-set size N at a fixed worker
// count, measuring the cost/quality trade-off of the paper's central
// tuning parameter.
func ProposalSetSize(c Common) ([]ProposalSizePoint, error) {
	sizes := []int{2, 4, 8, 16, 32}
	nSeq, seqLen, burnin, samples := 12, 200, 200, 2000
	if c.Scale == ScalePaper {
		sizes = []int{2, 4, 8, 16, 32, 64, 128}
		burnin, samples = 1000, 20000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	dev := device.New(c.workers())
	defer dev.Close()
	eval, err := buildEvaluator(aln, dev)
	if err != nil {
		return nil, err
	}
	var out []ProposalSizePoint
	for _, n := range sizes {
		init, err := core.InitialTree(aln, 1.0, c.seed())
		if err != nil {
			return nil, err
		}
		gmh := core.NewGMH(eval, dev, n)
		sec, err := timedRun(gmh, aln, 1.0, burnin, samples, c.seed()+uint64(n))
		if err != nil {
			return nil, err
		}
		// Re-run for the quality metrics (timing kept separate from the
		// metric pass so instrumentation does not skew it).
		run, err := core.Run(gmh, init, core.ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: c.seed() + uint64(n)})
		if err != nil {
			return nil, err
		}
		ess := stats.EffectiveSampleSize(run.Samples.PostBurninStats())
		out = append(out, ProposalSizePoint{
			N:         n,
			Sec:       sec,
			MoveRate:  run.AcceptanceRate(),
			ESS:       ess,
			ESSPerSec: ess / sec,
		})
	}
	return out, nil
}

// NestedParallelismPoint compares likelihood-kernel placement strategies
// at one proposal count.
type NestedParallelismPoint struct {
	N         int
	FlatSec   float64 // proposal-level parallelism only
	NestedSec float64 // proposals also launch per-site kernels (§4.4)
}

// NestedParallelism measures the paper's dynamic parallelism choice: when
// the proposal count is below the worker count, letting each proposal
// thread launch a per-site likelihood kernel recovers the idle workers;
// at or above the worker count it only adds launch overhead.
func NestedParallelism(c Common) ([]NestedParallelismPoint, error) {
	nSeq, seqLen, burnin, samples := 12, 400, 100, 1000
	if c.Scale == ScalePaper {
		burnin, samples = 500, 10000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	dev := device.New(c.workers())
	defer dev.Close()
	eval, err := buildEvaluator(aln, dev)
	if err != nil {
		return nil, err
	}
	// Nested site parallelism is GMH over a reference evaluator: each
	// proposal thread evaluates its candidate from scratch with a per-site
	// kernel on the same device.
	nestedEval, err := buildReference(aln, dev)
	if err != nil {
		return nil, err
	}
	sizes := []int{2, 4, dev.Workers()}
	var out []NestedParallelismPoint
	for _, n := range sizes {
		flat := core.NewGMH(eval, dev, n)
		tFlat, err := timedRun(flat, aln, 1.0, burnin, samples, c.seed()+41)
		if err != nil {
			return nil, err
		}
		tNested, err := timedRun(core.NewGMH(nestedEval, dev, n), aln, 1.0, burnin, samples, c.seed()+41)
		if err != nil {
			return nil, err
		}
		out = append(out, NestedParallelismPoint{N: n, FlatSec: tFlat, NestedSec: tNested})
	}
	return out, nil
}

// GrowthPoint is one replicate of the growth-estimation extension
// experiment (§7): data simulated on a growing population, growth
// estimated by the two-parameter relative likelihood.
type GrowthPoint struct {
	TrueGrowth float64
	Theta      float64
	Growth     float64
}

// GrowthEstimation exercises the §7 extension end to end: for true growth
// rates {0, strong}, simulate sequence data, sample genealogies at the
// constant-size driving values, and jointly maximize L(θ, g). The
// importance-sampled two-parameter likelihood needs a healthy sample
// budget to separate the (θ, g) ridge, so this experiment runs longer
// chains than the speedup sweeps even at quick scale.
func GrowthEstimation(c Common) ([]GrowthPoint, error) {
	nSeq, seqLen, burnin, samples := 10, 400, 1500, 15000
	if c.Scale == ScalePaper {
		burnin, samples = 3000, 40000
	}
	dev := device.New(c.workers())
	defer dev.Close()
	var out []GrowthPoint
	for i, trueG := range []float64{0, 8} {
		seed := c.seed() + uint64(100+i)
		src := rng.NewStreamSet(1, seed).Stream(0)
		tree, err := mssim.SimulateGrowth(mssim.TipNames(nSeq), 1.0, trueG, src)
		if err != nil {
			return nil, err
		}
		aln, err := seqgen.Simulate(tree, seqgen.Config{Length: seqLen, Seed: seed})
		if err != nil {
			return nil, err
		}
		eval, err := buildEvaluator(aln, dev)
		if err != nil {
			return nil, err
		}
		init, err := core.InitialTree(aln, 1.0, seed)
		if err != nil {
			return nil, err
		}
		run, err := core.Run(core.NewGMH(eval, dev, dev.Workers()), init, core.ChainConfig{
			Theta: 1.0, Burnin: burnin, Samples: samples, Seed: seed + 1,
		})
		if err != nil {
			return nil, err
		}
		est, err := core.MaximizeThetaGrowth(run.Samples, dev)
		if err != nil {
			return nil, err
		}
		out = append(out, GrowthPoint{TrueGrowth: trueG, Theta: est.Theta, Growth: est.Growth})
	}
	return out, nil
}
