package core

import (
	"mpcgs/internal/gtree"
)

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
