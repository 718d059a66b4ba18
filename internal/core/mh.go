package core

import (
	"fmt"

	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
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
	theta float64
	src   *rng.MT19937
	st    *chainState
	rec   *recorder
	res   *Result
	step  int
	total int
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := eval.CheckTree(init); err != nil {
		return nil, err
	}
	if init.NTips() < 3 {
		return nil, fmt.Errorf("core: sampler needs at least 3 sequences, got %d", init.NTips())
	}
	rec, err := newRecorder(init.NTips(), cfg)
	if err != nil {
		return nil, err
	}
	return &mhRun{
		theta: cfg.Theta,
		src:   seedSource(cfg.Seed, label),
		st:    newChainState(eval, init),
		rec:   rec,
		res:   &Result{Samples: rec.set},
		total: cfg.Burnin + cfg.Samples,
	}, nil
}

// Step implements SnapshotStepper: one Metropolis transition, recorded.
func (r *mhRun) Step() error {
	accepted, err := r.st.step(r.theta, r.src)
	if err != nil {
		return fmt.Errorf("core: proposal failed at step %d: %w", r.step, err)
	}
	r.step++
	r.res.Proposals++
	if accepted {
		r.res.Accepted++
	}
	return r.rec.recordState(r.st)
}

// Done implements SnapshotStepper.
func (r *mhRun) Done() bool { return r.rec.full() }

// Finish implements SnapshotStepper.
func (r *mhRun) Finish() (*Result, error) {
	if err := r.rec.finalize(); err != nil {
		return nil, err
	}
	r.rec.applyOutcome(r.res)
	r.res.Final = r.st.cur
	return r.res, nil
}

// Snapshot implements SnapshotStepper.
func (r *mhRun) Snapshot() (*StepSnapshot, error) {
	t, ref, err := r.rec.snapshot()
	if err != nil {
		return nil, err
	}
	return &StepSnapshot{
		Sampler:  "mh",
		Step:     r.step,
		Host:     r.src.State(),
		Chains:   []ChainSnapshot{r.st.Snapshot()},
		Trace:    t,
		TraceRef: ref,
		Counters: countersOf(r.res),
	}, nil
}

// Restore implements SnapshotStepper.
func (r *mhRun) Restore(s *StepSnapshot) error {
	if s.Sampler != "mh" {
		return fmt.Errorf("core: %q snapshot restored into an mh run", s.Sampler)
	}
	if len(s.Chains) != 1 {
		return fmt.Errorf("core: mh snapshot has %d chains, want 1", len(s.Chains))
	}
	if s.Step < 0 || s.Step > r.total {
		return fmt.Errorf("core: mh snapshot at step %d, run has %d", s.Step, r.total)
	}
	if err := r.src.SetState(s.Host); err != nil {
		return err
	}
	if err := r.st.RestoreChainState(s.Chains[0]); err != nil {
		return err
	}
	if err := r.rec.restore(s.Trace, s.TraceRef, s.Step); err != nil {
		return err
	}
	s.Counters.applyTo(r.res)
	r.step = s.Step
	return nil
}
