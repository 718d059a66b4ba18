package core

import (
	"fmt"
	"math"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
)

// EMConfig drives the outer Expectation-Maximization loop of the program
// (paper §5.1, Fig. 11): each iteration samples genealogies under the
// current driving θ, maximizes the relative likelihood to obtain a new θ,
// and repeats until the estimate stabilizes or the iteration budget is
// exhausted.
type EMConfig struct {
	InitialTheta float64
	Iterations   int
	Burnin       int
	Samples      int
	Seed         uint64
	// Tolerance stops the loop once |Δθ|/θ falls below it. Zero selects
	// 1e-3.
	Tolerance float64
	// MLE tunes the inner gradient ascent.
	MLE MLEConfig
	// Trace streams every pass's draws to the sidecar at Trace.Path
	// (all iterations append to the same file), keeping the recorder
	// memory-bounded and checkpoints O(interval).
	Trace *TraceSpec
	// ESSTarget/RHatTarget end each sampling pass early once the online
	// convergence diagnostics reach them; see ChainConfig.
	ESSTarget  float64
	RHatTarget float64
}

func (c *EMConfig) withDefaults() EMConfig {
	out := *c
	if out.Tolerance <= 0 {
		out.Tolerance = 1e-3
	}
	if out.Iterations <= 0 {
		out.Iterations = 10
	}
	return out
}

// EMIteration records one round of the loop.
type EMIteration struct {
	ThetaIn        float64
	ThetaOut       float64
	AcceptanceRate float64
	MeanLogLik     float64
}

// EMResult is the outcome of the full estimation.
type EMResult struct {
	Theta      float64
	History    []EMIteration
	LastSet    *SampleSet  // sample set of the final iteration
	LastRun    *Result     // full sampler result of the final iteration
	FinalState *gtree.Tree // final chain state
}

// RunEM performs the full maximum-likelihood estimation of θ: the overall
// program flow of paper Fig. 11. Each iteration reuses the previous
// iteration's final genealogy as its starting state, so later iterations
// begin near the posterior and the burn-in cost is paid usefully.
func RunEM(s StepSampler, init *gtree.Tree, cfg EMConfig, dev *device.Device) (*EMResult, error) {
	e, err := StartEM(s, init, cfg, dev)
	if err != nil {
		return nil, err
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Result()
}

// EMRun is a step-driven EM estimation: the complete state of one job's
// estimation, advanced one sampler transition at a time. It is the unit
// the batch scheduler drives — many EMRuns interleave their steps over
// one shared device pool, and because each run owns all of its state
// (chain engine, PRNG streams, sample sets), a run's trajectory is
// bit-identical however its steps are interleaved with other runs'.
// RunEM is exactly StartEM driven to completion, so standalone and
// scheduled estimations share one code path.
type EMRun struct {
	sampler StepSampler
	dev     *device.Device
	cfg     EMConfig // defaults applied
	cur     *gtree.Tree
	theta   float64
	it      int
	active  Stepper // nil between iterations
	res     *EMResult
	done    bool
	err     error
}

// StartEM validates the configuration and returns a step-driven
// estimation positioned before its first sampler transition.
func StartEM(s StepSampler, init *gtree.Tree, cfg EMConfig, dev *device.Device) (*EMRun, error) {
	c := cfg.withDefaults()
	if c.InitialTheta <= 0 {
		return nil, fmt.Errorf("core: initial theta %v must be positive", c.InitialTheta)
	}
	return &EMRun{
		sampler: s,
		dev:     dev,
		cfg:     c,
		cur:     init,
		theta:   c.InitialTheta,
		res:     &EMResult{},
	}, nil
}

// Step advances the estimation by one sampler transition; when the
// transition completes an iteration's sampling pass, the same Step also
// maximizes θ and positions the run at the next iteration (or marks it
// done). Errors are fatal: the run is marked done and the error is also
// returned by Result.
func (e *EMRun) Step() error {
	if e.done {
		return e.err
	}
	if e.active == nil {
		run, err := e.sampler.Start(e.cur, e.chainConfig())
		if err != nil {
			return e.fail(err)
		}
		e.active = run
	}
	if err := e.active.Step(); err != nil {
		return e.fail(err)
	}
	if e.active.Done() {
		run, err := e.active.Finish()
		e.active = nil
		if err != nil {
			return e.fail(err)
		}
		return e.finishIteration(run)
	}
	return nil
}

// Done reports whether the estimation has converged, exhausted its
// iteration budget, or failed.
func (e *EMRun) Done() bool { return e.done }

// Result returns the estimation outcome (or the error that ended it).
func (e *EMRun) Result() (*EMResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.res, nil
}

// Theta returns the current driving value, for progress reporting.
func (e *EMRun) Theta() float64 { return e.theta }

// chainConfig derives the current iteration's sampling configuration,
// decorrelating iterations exactly as RunEM always has.
func (e *EMRun) chainConfig() ChainConfig {
	return ChainConfig{
		Theta:      e.theta,
		Burnin:     e.cfg.Burnin,
		Samples:    e.cfg.Samples,
		Seed:       e.cfg.Seed + uint64(e.it)*0x9e3779b9,
		Trace:      e.cfg.Trace,
		ESSTarget:  e.cfg.ESSTarget,
		RHatTarget: e.cfg.RHatTarget,
	}
}

func (e *EMRun) fail(err error) error {
	e.err = fmt.Errorf("core: EM iteration %d: %w", e.it, err)
	e.done = true
	return e.err
}

// finishIteration runs the maximization phase over the completed sampling
// pass and advances (or completes) the estimation.
func (e *EMRun) finishIteration(run *Result) error {
	next, err := MaximizeTheta(run.Samples, e.cfg.MLE, e.dev)
	if err != nil {
		return e.fail(err)
	}
	lls := run.Samples.PostBurninLogLik()
	meanLL := 0.0
	for _, v := range lls {
		meanLL += v
	}
	if len(lls) > 0 {
		meanLL /= float64(len(lls))
	}
	e.res.History = append(e.res.History, EMIteration{
		ThetaIn:        e.theta,
		ThetaOut:       next,
		AcceptanceRate: run.AcceptanceRate(),
		MeanLogLik:     meanLL,
	})
	e.res.LastSet = run.Samples
	e.res.LastRun = run
	e.res.FinalState = run.Final
	e.cur = run.Final
	moved := math.Abs(next-e.theta) / e.theta
	e.theta = next
	e.it++
	if moved < e.cfg.Tolerance || e.it >= e.cfg.Iterations {
		e.res.Theta = e.theta
		e.done = true
	}
	return nil
}

// InitialTree builds the sampler's starting genealogy from the alignment:
// UPGMA over per-site pairwise differences (paper §5.1.3). When the
// sequences are too similar to give the tree any height (all distances
// zero), a random coalescent genealogy at the driving theta stands in, so
// the chain always starts from a valid state.
func InitialTree(aln *phylip.Alignment, theta0 float64, seed uint64) (*gtree.Tree, error) {
	if err := aln.Validate(); err != nil {
		return nil, err
	}
	d := aln.DistanceMatrix()
	L := float64(aln.SeqLen())
	for i := range d {
		for j := range d[i] {
			d[i][j] /= L
		}
	}
	t, err := UPGMATree(d, aln.Names)
	if err != nil {
		return nil, err
	}
	if t.Height() < 1e-9 {
		src := seedSource(seed, 3)
		return gtree.RandomCoalescent(aln.Names, theta0, src)
	}
	return t, nil
}

// UPGMATree wraps gtree.UPGMA; distances should be per-site divergences so
// node ages land in the same units as the likelihood model's branch
// lengths (expected substitutions per site).
func UPGMATree(dist [][]float64, names []string) (*gtree.Tree, error) {
	return gtree.UPGMA(dist, names)
}
