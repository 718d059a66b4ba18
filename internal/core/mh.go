package core

import (
	"fmt"

	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
)

// MH is the serial single-chain Metropolis-Hastings sampler implementing
// the LAMARC algorithm (paper §4.2): at each step one neighbourhood is
// resimulated from the conditional coalescent prior and accepted with
// probability min(1, P(D|G')/P(D|G)) — the prior terms cancel out of the
// ratio exactly as in Eq. 28 because the proposal density is proportional
// to the prior.
//
// The step loop runs on the shared chain engine: proposals are
// delta-evaluated against the chain's conditional-likelihood cache, so
// per-step work is proportional to the resimulated neighbourhood rather
// than the whole genealogy, and nothing is allocated per step. Over a
// reference evaluator (felsen.NewReference) every proposal instead pays a
// full from-scratch likelihood evaluation, exactly what the reference
// package does: the single-processor baseline of the paper's speedup
// measurements (§6).
type MH struct {
	eval *felsen.Evaluator
}

// NewMH builds the baseline sampler over the given likelihood evaluator.
func NewMH(eval *felsen.Evaluator) *MH { return &MH{eval: eval} }

// mhRun is one started MH chain: a SnapshotStepper over single Metropolis steps.
type mhRun struct {
	pass
	theta float64
	st    *chainState
}

// Start implements StepSampler.
func (m *MH) Start(init *gtree.Tree, cfg ChainConfig) (SnapshotStepper, error) {
	run, err := startMH(m.eval, init, cfg, 1)
	if err != nil {
		return nil, err
	}
	return run, nil
}

// startMH starts a single-chain Metropolis run whose proposal stream is
// seeded under the given label: 1 for MH, 6 for the genealogy chain of
// Bayesian.
func startMH(eval *felsen.Evaluator, init *gtree.Tree, cfg ChainConfig, label uint64) (*mhRun, error) {
	p, err := startPass("mh", eval, init, cfg, seedSource(cfg.Seed, label), nil)
	if err != nil {
		return nil, err
	}
	return &mhRun{pass: p, theta: cfg.Theta, st: newChainState(eval, init)}, nil
}

// Step implements SnapshotStepper: one Metropolis transition, recorded.
func (r *mhRun) Step() error {
	accepted, err := r.st.step(r.theta, r.host)
	if err != nil {
		return fmt.Errorf("core: proposal failed at step %d: %w", r.rec.len(), err)
	}
	r.res.Proposals++
	if accepted {
		r.res.Accepted++
	}
	return r.rec.recordState(r.st)
}

// Finish implements SnapshotStepper.
func (r *mhRun) Finish() (*Result, error) { return r.finish(r.st.cur) }

// Snapshot implements SnapshotStepper.
func (r *mhRun) Snapshot() (*StepSnapshot, error) {
	return r.snapshot(0, []ChainSnapshot{r.st.Snapshot()}, nil)
}

// Restore implements SnapshotStepper.
func (r *mhRun) Restore(s *StepSnapshot) error {
	return r.restore(s, func() error {
		if len(s.Chains) != 1 {
			return fmt.Errorf("core: mh snapshot has %d chains, want 1", len(s.Chains))
		}
		return r.st.RestoreChainState(s.Chains[0])
	})
}
