package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"mpcgs"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/subst"
)

// problem is one θ estimation the benchmark runs: an alignment and fully
// specified estimator settings. Proposals and Chains are always explicit
// so a trajectory never depends on the machine's core count.
type problem struct {
	Name         string
	Phylip       []byte `json:"-"`
	Sampler      string // "gmh" or "heated"
	Proposals    int
	Chains       int
	Adapt        bool
	Burnin       int
	Samples      int
	EMIterations int
	Theta0       float64
	Seed         uint64
	ESSTarget    float64
	// GenealogyTheta is the θ the data's generating genealogy supports
	// (see simulate): the reference the estimate is checked against.
	GenealogyTheta float64
}

// loaded is a problem with its data parsed and its model built: what a
// run has in hand before it can sample.
type loaded struct {
	p     problem
	pub   *mpcgs.Alignment
	aln   *phylip.Alignment
	model subst.Model
	init  *gtree.Tree
}

// load parses the alignment through the public API (the set-up a user
// pays) and builds the pieces the core-call estimator needs: the F81 model
// and the UPGMA starting genealogy, as mpcgs.Run builds them.
func (p problem) load() (*loaded, error) {
	pub, err := mpcgs.ReadAlignment(bytes.NewReader(p.Phylip))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	aln, err := phylip.Read(bytes.NewReader(p.Phylip))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	init, err := core.InitialTree(aln, p.Theta0, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return &loaded{p: p, pub: pub, aln: aln, model: model, init: init}, nil
}

// publicConfig is the mpcgs.Run configuration of the problem. Run has
// no convergence-target setting, so problems with an ESS target have no
// public-API counterpart.
func (l *loaded) publicConfig(workers int) mpcgs.Config {
	return mpcgs.Config{
		Alignment:    l.pub,
		InitialTheta: l.p.Theta0,
		Sampler:      mpcgs.SamplerKind(l.p.Sampler),
		Workers:      workers,
		Proposals:    l.p.Proposals,
		Chains:       l.p.Chains,
		AdaptLadder:  l.p.Adapt,
		Burnin:       l.p.Burnin,
		Samples:      l.p.Samples,
		EMIterations: l.p.EMIterations,
		Seed:         l.p.Seed,
	}
}

// engine is one problem's evaluation stack on a device of a given size.
type engine struct {
	dev     *device.Device
	eval    *felsen.Evaluator
	sampler core.StepSampler
}

func (l *loaded) engine(workers int) (*engine, error) {
	dev := device.New(workers)
	eval, err := felsen.New(l.model, l.aln, dev)
	if err != nil {
		dev.Close()
		return nil, err
	}
	var s core.StepSampler
	switch l.p.Sampler {
	case "gmh":
		s = core.NewGMH(eval, dev, l.p.Proposals)
	case "heated":
		h := core.NewHeated(eval, dev, l.p.Chains)
		h.Adapt = l.p.Adapt
		s = h
	default:
		dev.Close()
		return nil, fmt.Errorf("%s: unsupported sampler %q", l.p.Name, l.p.Sampler)
	}
	return &engine{dev: dev, eval: eval, sampler: s}, nil
}

// chainConfig is EM iteration it's sampling configuration, derived the
// way core.RunEM derives it.
func (l *loaded) chainConfig(it int, theta float64) core.ChainConfig {
	return core.ChainConfig{
		Theta:     theta,
		Burnin:    l.p.Burnin,
		Samples:   l.p.Samples,
		Seed:      l.p.Seed + uint64(it)*0x9e3779b9,
		ESSTarget: l.p.ESSTarget,
	}
}

// emTolerance is core.RunEM's default relative-movement stop rule.
const emTolerance = 1e-3

// emOutcome is what the core-call estimator measured over one estimation.
type emOutcome struct {
	Theta      float64
	Iterations int
	Total      time.Duration
	Sample     time.Duration
	MLE        time.Duration
	Diagnose   time.Duration
	Steps      int
	Draws      int
	Accepted   int
	Proposals  int
	Failed     int
	ESS        float64
	// Device work during sampling and during the M-steps.
	SampleLaunches, SampleThreads int64
	MLELaunches, MLEThreads       int64
}

// runEM estimates θ through the core calls mpcgs.Run makes — per EM
// iteration Start/Step/Finish, then MaximizeTheta, and Diagnose at the
// end — with core.RunEM's seed schedule and stop rule, so its θ̂ is
// bit-identical to mpcgs.Run's. With a tracer it records the spans
// estimate ⊃ core.sample_pass ⊃ core.step, core.mle and core.diagnose.
func (l *loaded) runEM(workers int, tr *Tracer, run string) (*emOutcome, error) {
	e, err := l.engine(workers)
	if err != nil {
		return nil, err
	}
	defer e.dev.Close()
	out := &emOutcome{}
	start := time.Now()
	root := tr.Begin("estimate", run, 0)
	cur, theta := l.init, l.p.Theta0
	var last *core.Result
	for it := 0; it < l.p.EMIterations; it++ {
		t0 := time.Now()
		la0, th0 := e.dev.Stats()
		pass := tr.Begin("core.sample_pass", run, root)
		stepper, err := e.sampler.Start(cur, l.chainConfig(it, theta))
		if err != nil {
			return nil, err
		}
		for !stepper.Done() {
			sp := tr.Begin("core.step", run, pass)
			err := stepper.Step()
			tr.End(sp)
			if err != nil {
				return nil, err
			}
			out.Steps++
		}
		res, err := stepper.Finish()
		if err != nil {
			return nil, err
		}
		tr.End(pass)
		t1 := time.Now()
		la1, th1 := e.dev.Stats()
		m := tr.Begin("core.mle", run, root)
		next, err := core.MaximizeTheta(res.Samples, core.MLEConfig{}, e.dev)
		tr.End(m)
		if err != nil {
			return nil, err
		}
		la2, th2 := e.dev.Stats()
		out.Sample += t1.Sub(t0)
		out.MLE += time.Since(t1)
		out.SampleLaunches += la1 - la0
		out.SampleThreads += th1 - th0
		out.MLELaunches += la2 - la1
		out.MLEThreads += th2 - th1
		out.Draws += res.Samples.Len()
		out.Accepted += res.Accepted
		out.Proposals += res.Proposals
		out.Failed += res.FailedProposals
		out.Iterations++
		moved := math.Abs(next-theta) / theta
		theta, cur, last = next, res.Final, res
		if moved < emTolerance {
			break
		}
	}
	t2 := time.Now()
	d := tr.Begin("core.diagnose", run, root)
	out.ESS = core.Diagnose(last.Samples).ESS
	tr.End(d)
	tr.End(root)
	out.Diagnose = time.Since(t2)
	out.Total = time.Since(start)
	out.Theta = theta
	return out, nil
}

// passOutcome is one timed sampling pass.
type passOutcome struct {
	Draws  int
	Dur    time.Duration
	Digest uint64
}

// samplePass runs the first EM iteration's sampling pass (θ0, the
// problem's seed) on a fresh engine and times Start through Finish. The
// digest hashes every recorded draw, so repeated passes — at any worker
// count — must agree on it.
func (l *loaded) samplePass(workers int, tr *Tracer, run string) (passOutcome, error) {
	e, err := l.engine(workers)
	if err != nil {
		return passOutcome{}, err
	}
	defer e.dev.Close()
	start := time.Now()
	pass := tr.Begin("core.sample_pass", run, 0)
	stepper, err := e.sampler.Start(l.init, l.chainConfig(0, l.p.Theta0))
	if err != nil {
		return passOutcome{}, err
	}
	for !stepper.Done() {
		sp := tr.Begin("core.step", run, pass)
		err := stepper.Step()
		tr.End(sp)
		if err != nil {
			return passOutcome{}, err
		}
	}
	res, err := stepper.Finish()
	if err != nil {
		return passOutcome{}, err
	}
	tr.End(pass)
	dur := time.Since(start)
	return passOutcome{Draws: res.Samples.Len(), Dur: dur, Digest: digest(res.Samples)}, nil
}

func digest(s *core.SampleSet) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range s.Stats {
		put(s.Stats[i])
		put(s.LogLik[i])
	}
	return h.Sum64()
}
