package core

import (
	"fmt"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
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
// The sampler is one pass like the others: one Step is a parallel sweep
// in which every chain takes one Metropolis step on the device, driven by
// its own generator, and the sweep's P draws are then recorded in chain
// order. The pass's one recorder (and, when it spills, its one sidecar)
// thus holds the sweeps back to back, and Finish regroups them by chain.
// The ensemble keeps no online diagnostic: in the sweep-ordered stream
// independent chains alternate, so an ESS of it would read near the draw
// count whatever the chains' mixing, and stop targets are refused.
type MultiChain struct {
	eval   *felsen.Evaluator
	dev    *device.Device
	Chains int
}

// NewMultiChain builds the P-independent-chains baseline on dev.
func NewMultiChain(eval *felsen.Evaluator, dev *device.Device, chains int) *MultiChain {
	return &MultiChain{eval: eval, dev: dev, Chains: chains}
}

// mcRun is one started multichain ensemble: P independent chains driven
// in lockstep sweeps, each by its own stream of the pass.
type mcRun struct {
	pass
	m        *MultiChain
	p        int
	samples  int // pooled post-burn-in quota
	theta    float64
	states   []*chainState
	accepted []bool
	errs     []error
	kernel   func(chain int)
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
	// The pass records every sweep: P·Burnin burn-in draws, then each
	// chain's ceil(S/P) post-burn-in draws.
	sweeps := cfg
	sweeps.Burnin = p * cfg.Burnin
	sweeps.Samples = p * ((cfg.Samples + p - 1) / p)
	gens := make([]*rng.MT19937, p)
	for chain := range gens {
		gens[chain] = seedSource(cfg.Seed+uint64(chain)*0x01000193, 1)
	}
	ps, err := startPass("multichain", m.eval, init, sweeps, nil, rng.NewStreamSetOf(gens))
	if err != nil {
		return nil, err
	}
	ps.rec.diag = nil // no online diagnostic (see MultiChain)
	r := &mcRun{
		pass:     ps,
		m:        m,
		p:        p,
		samples:  cfg.Samples,
		theta:    cfg.Theta,
		states:   newChainLadder(m.eval, init, p),
		accepted: make([]bool, p),
		errs:     make([]error, p),
	}
	r.kernel = func(chain int) {
		r.accepted[chain], r.errs[chain] = r.states[chain].step(r.theta, r.streams.Stream(chain))
	}
	return r, nil
}

// Step implements SnapshotStepper: one parallel sweep, each chain
// advancing by one Metropolis step, then the sweep's draws in chain order.
func (r *mcRun) Step() error {
	r.m.dev.Launch(r.p, r.kernel)
	for chain, err := range r.errs {
		if err != nil {
			return fmt.Errorf("core: chain %d: proposal failed at step %d: %w", chain, r.rec.len()/r.p, err)
		}
	}
	r.res.Proposals += r.p
	for chain, st := range r.states {
		if r.accepted[chain] {
			r.res.Accepted++
		}
		if err := r.rec.recordState(st); err != nil {
			return err
		}
	}
	return nil
}

// Finish implements SnapshotStepper: the sweep-ordered pass is regrouped
// into the pooled set. Chain c's k-th draw sits at index k·P + c, so the
// pool takes each chain's post-burn-in draws in turn until it holds S.
func (r *mcRun) Finish() (*Result, error) {
	res, err := r.finish(r.states[r.p-1].cur)
	if err != nil {
		return nil, err
	}
	sweeps := res.Samples
	pooled := &SampleSet{
		NTips:  sweeps.NTips,
		Theta0: sweeps.Theta0,
		Stats:  make([]float64, 0, r.samples),
		Ages:   make([][]float64, 0, r.samples),
		LogLik: make([]float64, 0, r.samples),
	}
	for chain := 0; chain < r.p; chain++ {
		for i := sweeps.Burnin + chain; i < sweeps.Len() && pooled.Len() < r.samples; i += r.p {
			pooled.Stats = append(pooled.Stats, sweeps.Stats[i])
			pooled.Ages = append(pooled.Ages, sweeps.Ages[i])
			pooled.LogLik = append(pooled.LogLik, sweeps.LogLik[i])
		}
	}
	res.Samples = pooled
	return res, nil
}

// Snapshot implements SnapshotStepper: every chain's state in chain order
// plus its stream.
func (r *mcRun) Snapshot() (*StepSnapshot, error) {
	chains := make([]ChainSnapshot, r.p)
	for i, st := range r.states {
		chains[i] = st.Snapshot()
	}
	return r.snapshot(0, chains, nil)
}

// Restore implements SnapshotStepper.
func (r *mcRun) Restore(s *StepSnapshot) error {
	return r.restore(s, func() error {
		if len(s.Chains) != r.p {
			return fmt.Errorf("core: multichain snapshot has %d chains, run is configured for %d", len(s.Chains), r.p)
		}
		for i := range s.Chains {
			if err := r.states[i].RestoreChainState(s.Chains[i]); err != nil {
				return fmt.Errorf("core: chain %d: %w", i, err)
			}
		}
		return nil
	})
}
