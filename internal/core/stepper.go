package core

import (
	"mpcgs/internal/gtree"
)

// Stepper is a sampling run that has been started but is driven from
// outside: each Step advances the chain by one transition (one Metropolis
// step, one GMH proposal round, one tempered-ladder sweep), Done reports
// whether every configured draw has been recorded, and Finish finalizes
// the Result.
//
// Steppers exist so a run loop is not owned by the sampler: a batch
// scheduler can hold many concurrent runs and interleave their steps over
// one shared device pool, time-slicing tenants at transition granularity.
// A Stepper is not safe for concurrent use; it is the scheduling unit,
// and all of its state (PRNG streams, chain engine state, recorder) is
// owned by the run, so two runs never share mutable state and a run's
// draws are identical however its steps are interleaved with other runs'.
type Stepper interface {
	// Step performs one transition and records its draw(s). An error is
	// fatal to the run.
	Step() error
	// Done reports whether the configured number of draws is recorded.
	Done() bool
	// Finish returns the completed run's result. It must be called once,
	// after Done becomes true.
	Finish() (*Result, error)
}

// StepSampler is a genealogy sampler: it draws genealogies from the
// posterior P(G|D,θ) starting at init, under the run configuration. Start
// hands the run loop to the caller (a scheduler, the EM driver, or Run);
// every started run can be snapshotted and restored.
type StepSampler interface {
	Start(init *gtree.Tree, cfg ChainConfig) (SnapshotStepper, error)
}

// Run drives a fresh run of s to completion. Because the standalone path
// and the schedulers go through exactly this Start/Step/Finish sequence,
// a job's draws when scheduled are bit-identical to its standalone run.
func Run(s StepSampler, init *gtree.Tree, cfg ChainConfig) (*Result, error) {
	run, err := s.Start(init, cfg)
	if err != nil {
		return nil, err
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			return nil, err
		}
	}
	return run.Finish()
}
