// Package mpcgs is a multiple-proposal coalescent genealogy sampler: a
// scalable parallel reimplementation of maximum-likelihood estimation of
// the population parameter θ = 2·N_e·μ from sequence data, after
// "Scalable Parallelization of a Markov Coalescent Genealogy Sampler"
// (Davis, 2016/2017).
//
// The estimator alternates two phases (an Expectation-Maximization loop):
// a Markov chain samples genealogical trees from the posterior P(G|D,θ0)
// at a driving value θ0, and an exact solve maximizes the relative
// likelihood L(θ) of the sampled trees to produce the next driving value.
// The sampling phase is parallelized with Calderhead's Generalized
// Metropolis-Hastings construction: each iteration generates many
// proposals at once — all resimulating the same neighbourhood of the
// current genealogy, so any member of the set can propose the rest — and
// then samples repeatedly from the resulting index chain. Unlike the
// classic run-independent-chains approach, burn-in itself parallelizes,
// removing the Amdahl bottleneck.
//
// Quick start:
//
//	aln, err := mpcgs.LoadAlignment("seqs.phy")
//	res, err := mpcgs.Run(mpcgs.Config{Alignment: aln, InitialTheta: 0.1})
//	fmt.Println(res.Theta)
package mpcgs

import (
	"io"
	"sort"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
	"mpcgs/internal/sched"
	"mpcgs/internal/seqgen"
)

// Alignment is a set of equal-length nucleotide sequences, the data D of
// the estimator.
type Alignment struct {
	aln *phylip.Alignment
}

// NSeq returns the number of sequences.
func (a *Alignment) NSeq() int { return a.aln.NSeq() }

// SeqLen returns the common sequence length.
func (a *Alignment) SeqLen() int { return a.aln.SeqLen() }

// Names returns the sequence labels in order.
func (a *Alignment) Names() []string { return append([]string(nil), a.aln.Names...) }

// Sequence returns the i-th sequence as a string, with '?' marking
// missing-data positions.
func (a *Alignment) Sequence(i int) string { return a.aln.Seqs[i].String() }

// WritePhylip renders the alignment in PHYLIP format.
func (a *Alignment) WritePhylip(w io.Writer) error { return phylip.Write(w, a.aln) }

// parsed returns the parsed alignment, nil for a nil Alignment (which
// the job gate then refuses).
func (a *Alignment) parsed() *phylip.Alignment {
	if a == nil {
		return nil
	}
	return a.aln
}

// ReadAlignment parses a PHYLIP alignment (sequential or interleaved).
func ReadAlignment(r io.Reader) (*Alignment, error) {
	aln, err := phylip.Read(r)
	if err != nil {
		return nil, err
	}
	return &Alignment{aln: aln}, nil
}

// LoadAlignment reads a PHYLIP alignment from a file.
func LoadAlignment(path string) (*Alignment, error) {
	aln, err := phylip.Load(path)
	if err != nil {
		return nil, err
	}
	return &Alignment{aln: aln}, nil
}

// SimulateAlignment generates sequence data with a known true θ by the
// paper's §6.1 pipeline: a Kingman coalescent genealogy (the ms substrate)
// and F84 sequence evolution along it (the seq-gen substrate).
func SimulateAlignment(nSeq, length int, theta float64, seed uint64) (*Alignment, error) {
	aln, _, err := seqgen.SimulateData(nSeq, length, theta, seed)
	if err != nil {
		return nil, err
	}
	return &Alignment{aln: aln}, nil
}

// SamplerKind selects the sampling algorithm.
type SamplerKind string

// Available samplers.
const (
	// SamplerGMH is the paper's multiple-proposal Generalized
	// Metropolis-Hastings sampler (the default).
	SamplerGMH SamplerKind = "gmh"
	// SamplerMH is the serial single-chain LAMARC baseline.
	SamplerMH SamplerKind = "mh"
	// SamplerMultiChain runs independent MH chains in parallel, the
	// classic approach whose per-chain burn-in limits scalability.
	SamplerMultiChain SamplerKind = "multichain"
	// SamplerHeated is Metropolis-coupled MCMC (MC³): a ladder of
	// tempered chains with state swaps, the search strategy of the
	// production LAMARC package.
	SamplerHeated SamplerKind = "heated"
)

// ModelKind selects the substitution model of the likelihood.
type ModelKind string

// Available likelihood models.
const (
	// ModelF81 is the paper's Eq. 20 model with empirical base
	// frequencies (the default).
	ModelF81 ModelKind = "f81"
	// ModelJC69 is Jukes-Cantor: Eq. 20 with uniform frequencies.
	ModelJC69 ModelKind = "jc69"
	// ModelF84 adds a transition/transversion bias (kappa 2).
	ModelF84 ModelKind = "f84"
)

// Config parameterizes a full θ estimation run. Zero values select
// sensible defaults for everything but Alignment and InitialTheta.
type Config struct {
	// Alignment is the sequence data (required, at least 3 sequences).
	Alignment *Alignment
	// InitialTheta is the starting driving value θ0 (required, positive).
	// The method is designed to be insensitive to it (§5.1.1).
	InitialTheta float64
	// Sampler selects the algorithm; default SamplerGMH.
	Sampler SamplerKind
	// Model selects the likelihood model; default ModelF81.
	Model ModelKind
	// Workers is the device parallelism; default runtime.GOMAXPROCS(0).
	Workers int
	// Proposals is the GMH proposal-set size N; default Workers.
	Proposals int
	// Chains is the heated/multichain chain count; default Workers.
	Chains int
	// MaxTemp is the heated ladder's hottest temperature; default 8.
	// Values below 1 are rejected.
	MaxTemp float64
	// SwapEvery is the number of within-chain steps between heated swap
	// attempts; default 1. Negative values are rejected.
	SwapEvery int
	// AdaptLadder turns on swap-rate-driven temperature-ladder
	// adaptation for the heated sampler: during burn-in the ladder's
	// interior temperatures are retuned toward uniform per-pair swap
	// acceptance, then frozen for the recorded draws.
	AdaptLadder bool
	// SwapWindow is the sliding-window size for per-pair swap-rate
	// tracking; default 64. Negative values are rejected.
	SwapWindow int
	// Burnin draws are discarded at the start of each EM iteration;
	// default 1000.
	Burnin int
	// Samples draws are recorded per EM iteration; default 10000.
	Samples int
	// EMIterations bounds the outer loop; default 10.
	EMIterations int
	// Seed drives all pseudo-randomness; default 1.
	Seed uint64
	// EstimateGrowth additionally maximizes the two-parameter relative
	// likelihood L(θ, g) over the final sample set, reporting an
	// exponential growth rate alongside θ (the paper's §7 extension).
	EstimateGrowth bool
}

// EMIteration reports one round of the outer loop.
type EMIteration struct {
	ThetaIn        float64
	ThetaOut       float64
	AcceptanceRate float64
	MeanLogLik     float64
}

// Diagnostics summarizes chain health for the final EM iteration.
type Diagnostics struct {
	// ESS is the effective sample size of the post-burn-in trace of the
	// sufficient statistic S (the stream an ESS stop target reads).
	ESS float64
	// GewekeZ is the stationarity z-score of the post-burn-in
	// log-likelihood trace; |z| below ~2 is consistent with a converged
	// chain.
	GewekeZ float64
	// SuggestedBurnin is the data-driven burn-in the trace itself
	// suggests.
	SuggestedBurnin int
	// BurninSufficient reports whether the configured burn-in covered
	// the detected transient. It is false for a frozen trace.
	BurninSufficient bool
	// Frozen reports that the post-burn-in log-likelihood trace holds a
	// single value: the chain never moved, so it cannot be diagnosed.
	// ESS is then 0 and GewekeZ NaN.
	Frozen bool
}

// GrowthResult is the optional two-parameter estimate.
type GrowthResult struct {
	Theta  float64
	Growth float64
	// WeightESS is the effective sample size of the importance weights
	// at the estimate (core.GrowthEstimate.WeightESS): far below the
	// number of draws, the reweighting from the pass's driving value is
	// unreliable.
	WeightESS float64
}

// SwapReport is the heated sampler's per-pair swap-rate diagnostic:
// entry i describes the exchanges between adjacent rungs i and i+1 of
// the final EM iteration. A healthy ladder has roughly uniform rates
// across pairs; a pair near zero marks a temperature gap states cannot
// cross (the adaptive ladder's target is to flatten this profile).
type SwapReport struct {
	// Betas is the final β schedule, β_0 = 1 down to β_{P-1}.
	Betas []float64
	// Attempts and Accepts count estimation-phase (post-burn-in) swap
	// proposals per adjacent pair: the rates of the schedule the
	// recorded draws were sampled under, free of the burn-in transient
	// (and, with AdaptLadder, of the still-moving ladder).
	Attempts []int64
	Accepts  []int64
	// Adapted reports whether the ladder ran with adaptation on, and
	// Adaptations how many schedule updates were applied. Adapted with
	// zero Adaptations means adaptation never engaged: the burn-in was
	// shorter than the warm-up (every pair's SwapWindow filling once).
	Adapted     bool
	Adaptations int64
}

// Rates returns the per-pair swap acceptance rates (NaN for a pair
// never attempted).
func (s *SwapReport) Rates() []float64 {
	return core.PairRates(s.Accepts, s.Attempts)
}

// Result is the outcome of a full estimation run.
type Result struct {
	// Theta is the maximum likelihood estimate of θ.
	Theta float64
	// History records the EM trajectory.
	History []EMIteration
	// FinalTree is the last sampled genealogy in Newick form.
	FinalTree string
	// Diagnostics reports convergence health of the final iteration.
	Diagnostics Diagnostics
	// Growth holds the (θ, g) estimate when Config.EstimateGrowth is
	// set, nil otherwise.
	Growth *GrowthResult
	// SwapReport summarizes the heated sampler's temperature ladder over
	// the final EM iteration: the β schedule (adapted, when AdaptLadder
	// is on) and the per-adjacent-pair swap counts. Nil for other
	// samplers.
	SwapReport *SwapReport

	lastSet *core.SampleSet
	workers int
}

// Curve evaluates the relative log-likelihood log L(θ) of the final
// sample set over the given θ grid (the curve of paper Fig. 5).
func (r *Result) Curve(thetas []float64) []float64 {
	dev := device.New(r.workers)
	defer dev.Close()
	return core.Curve(r.lastSet, thetas, dev)
}

// Run performs the full maximum likelihood estimation of θ. It is the
// scheduler's standalone run of the equivalent job, so a Config and the
// same settings submitted as a batch or daemon job give bit-identical
// estimates.
func Run(cfg Config) (*Result, error) {
	out, err := sched.RunStandalone(sched.Job{
		Alignment:    cfg.Alignment.parsed(),
		InitialTheta: cfg.InitialTheta,
		Sampler:      string(cfg.Sampler),
		Model:        string(cfg.Model),
		Proposals:    cfg.Proposals,
		Chains:       cfg.Chains,
		MaxTemp:      cfg.MaxTemp,
		SwapEvery:    cfg.SwapEvery,
		AdaptLadder:  cfg.AdaptLadder,
		SwapWindow:   cfg.SwapWindow,
		Burnin:       cfg.Burnin,
		Samples:      cfg.Samples,
		EMIterations: cfg.EMIterations,
		Seed:         cfg.Seed,
	}, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Theta:       out.Theta,
		FinalTree:   out.LastRun.Final.String(),
		Diagnostics: Diagnostics(core.Diagnose(out.LastSet)),
		lastSet:     out.LastSet,
		workers:     cfg.Workers,
	}
	for _, h := range out.History {
		res.History = append(res.History, EMIteration(h))
	}
	if run := out.LastRun; len(run.PairSwapAttempts) > 0 {
		res.SwapReport = &SwapReport{
			Betas:       run.Betas,
			Attempts:    run.EstPairSwapAttempts,
			Accepts:     run.EstPairSwaps,
			Adapted:     run.LadderAdapted,
			Adaptations: run.LadderAdaptations,
		}
	}
	if cfg.EstimateGrowth {
		dev := device.New(cfg.Workers)
		defer dev.Close()
		est, err := core.MaximizeThetaGrowth(out.LastSet, dev)
		if err != nil {
			return nil, err
		}
		res.Growth = &GrowthResult{Theta: est.Theta, Growth: est.Growth, WeightESS: est.WeightESS}
	}
	return res, nil
}

// EstimateTheta is the one-call convenience API: estimate θ from an
// alignment with default settings.
func EstimateTheta(aln *Alignment, initialTheta float64) (float64, error) {
	res, err := Run(Config{Alignment: aln, InitialTheta: initialTheta})
	if err != nil {
		return 0, err
	}
	return res.Theta, nil
}

// BayesResult summarizes a Bayesian posterior sample of θ.
type BayesResult struct {
	// PosteriorMean and PosteriorMedian summarize the θ draws.
	PosteriorMean   float64
	PosteriorMedian float64
	// CredibleLow and CredibleHigh bound the central 95% interval.
	CredibleLow, CredibleHigh float64
	// Thetas holds the post-burn-in posterior draws.
	Thetas []float64
}

// RunBayesian samples the joint posterior P(G, θ|D) under a log-uniform
// prior on θ — the Bayesian estimation mode of LAMARC 2.0 — and returns
// posterior summaries instead of a point estimate. It reads Alignment,
// InitialTheta (which seeds the chain), Model, Workers, Burnin, Samples
// and Seed, and admits them as a scheduler job would be admitted, with
// the same defaults and the same validation; the other settings are
// ignored.
func RunBayesian(cfg Config) (*BayesResult, error) {
	dev := device.New(cfg.Workers)
	defer dev.Close()
	job, eval, init, err := sched.Prepare(sched.Job{
		Alignment:    cfg.Alignment.parsed(),
		InitialTheta: cfg.InitialTheta,
		Model:        string(cfg.Model),
		Burnin:       cfg.Burnin,
		Samples:      cfg.Samples,
		Seed:         cfg.Seed,
	}, dev)
	if err != nil {
		return nil, err
	}
	run, err := core.NewBayesian(eval).Run(init, core.ChainConfig{
		Theta:   job.InitialTheta,
		Burnin:  job.Burnin,
		Samples: job.Samples,
		Seed:    job.Seed,
	})
	if err != nil {
		return nil, err
	}
	thetas := append([]float64(nil), run.Thetas[run.Samples.Burnin:]...)
	sorted := append([]float64(nil), thetas...)
	sort.Float64s(sorted)
	res := &BayesResult{
		PosteriorMean:   run.PosteriorMeanTheta(),
		PosteriorMedian: sorted[len(sorted)/2],
		CredibleLow:     sorted[int(0.025*float64(len(sorted)))],
		CredibleHigh:    sorted[int(0.975*float64(len(sorted)))],
		Thetas:          thetas,
	}
	return res, nil
}
