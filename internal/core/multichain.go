package core

import (
	"fmt"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
)

// MultiChain is the classic parallelization the paper argues against
// (§3, Fig. 6): P independent Metropolis-Hastings chains run concurrently,
// each paying its own full burn-in, with the post-burn-in samples pooled.
// Total work is P·B + S for S pooled samples, so by Amdahl's law the
// speedup over a single chain saturates at (B+S)/B no matter how many
// processors are added — the motivation for the GMH sampler. Each chain
// is an engine chain with its own likelihood cache and resimulation
// scratch (or none, over a reference evaluator — the historical
// measurement the Fig. 6 timings are defined against); cheaper steps do
// not change the Amdahl argument, which is about burn-in replication, not
// per-step cost.
//
// Pooling: Burnin applies to every chain, and the Samples quota is split
// evenly across chains (each draws ceil(S/P)). The pooled SampleSet holds
// the chains' post-burn-in draws in chain order, truncated to S, with
// Burnin 0: no burn-in draw is recorded in it.
//
// The sampler is step-driven like the others: one Step is a parallel
// sweep in which every unfinished chain takes one Metropolis step on the
// device. Chains are fully independent — each owns its generator, engine
// state and recorder — so the lockstep sweeps produce exactly the draws
// the old run-each-chain-to-completion layout produced, and the sweep
// boundary is a consistent point to checkpoint the whole ensemble.
type MultiChain struct {
	eval   *felsen.Evaluator
	dev    *device.Device
	Chains int
}

// NewMultiChain builds the P-independent-chains baseline on dev.
func NewMultiChain(eval *felsen.Evaluator, dev *device.Device, chains int) *MultiChain {
	return &MultiChain{eval: eval, dev: dev, Chains: chains}
}

// mcRun is one started multichain ensemble: P independent MH runs driven
// in lockstep sweeps.
type mcRun struct {
	m       *MultiChain
	samples int // pooled post-burn-in quota
	nTips   int
	theta   float64
	subs    []*mhRun
	errs    []error
	kernel  func(chain int)
}

// Start implements StepSampler.
func (m *MultiChain) Start(init *gtree.Tree, cfg ChainConfig) (SnapshotStepper, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := m.Chains
	if p < 1 {
		return nil, fmt.Errorf("core: MultiChain needs at least 1 chain, got %d", p)
	}
	if cfg.ESSTarget > 0 || cfg.RHatTarget > 0 {
		// Each chain owns an even share of the pooled quota; a per-chain
		// stop rule against a pooled target is ill-defined, so the
		// ensemble rejects targets rather than guessing a split.
		return nil, fmt.Errorf("core: MultiChain does not support convergence stop targets")
	}
	perChain := (cfg.Samples + p - 1) / p
	r := &mcRun{
		m:       m,
		samples: cfg.Samples,
		nTips:   init.NTips(),
		theta:   cfg.Theta,
		subs:    make([]*mhRun, p),
		errs:    make([]error, p),
	}
	for chain := 0; chain < p; chain++ {
		sc := ChainConfig{
			Theta:   cfg.Theta,
			Burnin:  cfg.Burnin,
			Samples: perChain,
			Seed:    cfg.Seed + uint64(chain)*0x01000193,
		}
		if cfg.Trace != nil {
			// Chains step concurrently inside the device launch, so each
			// one spills to its own sidecar file.
			t := *cfg.Trace
			t.Path = fmt.Sprintf("%s.c%d", cfg.Trace.Path, chain)
			sc.Trace = &t
		}
		run, err := startMH(m.eval, init, sc, 1)
		if err != nil {
			return nil, fmt.Errorf("core: chain %d: %w", chain, err)
		}
		r.subs[chain] = run
	}
	r.kernel = func(chain int) {
		if sub := r.subs[chain]; !sub.Done() {
			r.errs[chain] = sub.Step()
		}
	}
	return r, nil
}

// Step implements SnapshotStepper: one parallel sweep, each unfinished chain
// advancing by one Metropolis step.
func (r *mcRun) Step() error {
	r.m.dev.Launch(len(r.subs), r.kernel)
	for chain, err := range r.errs {
		if err != nil {
			return fmt.Errorf("core: chain %d: %w", chain, err)
		}
	}
	return nil
}

// Done implements SnapshotStepper.
func (r *mcRun) Done() bool {
	for _, sub := range r.subs {
		if !sub.Done() {
			return false
		}
	}
	return true
}

// Finish implements SnapshotStepper: pool the chains' post-burn-in draws, exactly
// the reduction the run-to-completion layout performed.
func (r *mcRun) Finish() (*Result, error) {
	out := &SampleSet{
		NTips:  r.nTips,
		Theta0: r.theta,
		Burnin: 0,
		Stats:  make([]float64, 0, r.samples),
		Ages:   make([][]float64, 0, r.samples),
		LogLik: make([]float64, 0, r.samples),
	}
	res := &Result{Samples: out}
	for _, sub := range r.subs {
		sr, err := sub.Finish()
		if err != nil {
			return nil, err
		}
		res.Accepted += sr.Accepted
		res.Proposals += sr.Proposals
		stats := sr.Samples.PostBurninStats()
		agesList := sr.Samples.PostBurninAges()
		lls := sr.Samples.PostBurninLogLik()
		for i := range stats {
			if out.Len() >= r.samples {
				break
			}
			out.Stats = append(out.Stats, stats[i])
			out.Ages = append(out.Ages, agesList[i])
			out.LogLik = append(out.LogLik, lls[i])
		}
		res.Final = sr.Final
	}
	return res, nil
}

// Snapshot implements SnapshotStepper: one MH snapshot per chain, in
// chain order.
func (r *mcRun) Snapshot() (*StepSnapshot, error) {
	subs := make([]*StepSnapshot, len(r.subs))
	for i, sub := range r.subs {
		snap, err := sub.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("core: chain %d: %w", i, err)
		}
		subs[i] = snap
	}
	return &StepSnapshot{Sampler: "multichain", Subs: subs}, nil
}

// Restore implements SnapshotStepper.
func (r *mcRun) Restore(s *StepSnapshot) error {
	if s.Sampler != "multichain" {
		return fmt.Errorf("core: %q snapshot restored into a multichain run", s.Sampler)
	}
	if len(s.Subs) != len(r.subs) {
		return fmt.Errorf("core: multichain snapshot has %d chains, run is configured for %d", len(s.Subs), len(r.subs))
	}
	for i, sub := range s.Subs {
		if err := r.subs[i].Restore(sub); err != nil {
			return fmt.Errorf("core: chain %d: %w", i, err)
		}
	}
	return nil
}
