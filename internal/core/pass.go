package core

import (
	"fmt"

	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/tempering"
)

// pass is the lifecycle every sampler shares: one recorded pass of draws
// (§5.1.3), from the start checks to Finish, and the part of a snapshot
// that is not the sampler's own — the generators, the trace and the
// counters. gmhRun, mhRun, heatedRun and mcRun embed it (and through
// mhRun the Bayesian genealogy chain); each keeps only its own chain
// state: GMH's slot set, MH's chain, MC³'s rungs and ladder, MultiChain's
// independent chains.
// The recorder is the one count of the pass: rec.len() is the number of
// draws so far, rec.total the configured budget.
type pass struct {
	name    string         // the StepSnapshot.Sampler tag
	host    *rng.MT19937   // nil for MultiChain, whose chains draw from streams
	streams *rng.StreamSet // nil for a single-chain run
	rec     *recorder
	res     *Result
}

// startPass runs the start checks every sampler shares — the run
// configuration, the initial tree against the evaluator, at least 3
// tips — and opens the pass's recorder, which creates or recovers the
// sidecar when cfg spills. Samplers check their own settings before
// calling it, so a refused start never touches a sidecar.
func startPass(name string, eval *felsen.Evaluator, init *gtree.Tree, cfg ChainConfig, host *rng.MT19937, streams *rng.StreamSet) (pass, error) {
	if err := cfg.validate(); err != nil {
		return pass{}, err
	}
	if err := eval.CheckTree(init); err != nil {
		return pass{}, err
	}
	if init.NTips() < 3 {
		return pass{}, fmt.Errorf("core: sampler needs at least 3 sequences, got %d", init.NTips())
	}
	rec, err := newRecorder(init.NTips(), cfg)
	if err != nil {
		return pass{}, err
	}
	return pass{name: name, host: host, streams: streams, rec: rec, res: &Result{Samples: rec.set}}, nil
}

// Done implements SnapshotStepper.
func (p *pass) Done() bool { return p.rec.full() }

// finish completes the pass: the recorder is finalized (a spilling run
// reads its draws back from the sidecar) and the stop decision and the
// final state are set on the Result.
func (p *pass) finish(final *gtree.Tree) (*Result, error) {
	if err := p.rec.finalize(); err != nil {
		return nil, err
	}
	p.res.StoppedEarly = p.rec.stopped
	p.res.StopESS = p.rec.stopESS
	p.res.StopRHat = p.rec.stopRHat
	p.res.Final = final
	return p.res, nil
}

// snapshot assembles the run's StepSnapshot around the sampler's own
// state: cur (GMH's slot index), chains and, for MC³, the ladder. A run
// that spills carries a sidecar reference, after flushing so that its
// offsets are durable; a run that records in memory carries none, so its
// snapshot reports the chains and counters but cannot be restored.
func (p *pass) snapshot(cur int, chains []ChainSnapshot, ladder *tempering.State) (*StepSnapshot, error) {
	ref, err := p.rec.snapshot()
	if err != nil {
		return nil, err
	}
	s := &StepSnapshot{
		Sampler:  p.name,
		Step:     p.rec.len(),
		Cur:      cur,
		Chains:   chains,
		Ladder:   ladder,
		TraceRef: ref,
		Counters: countersOf(p.res),
	}
	if p.host != nil {
		host := p.host.State()
		s.Host = &host
	}
	if p.streams != nil {
		s.Streams = p.streams.State()
	}
	return s, nil
}

// restore positions a freshly started pass at s. The sampler tag is
// checked first; own then restores and checks the sampler's own state;
// then the generators take their snapshot states, the recorder checks
// the step range and the sidecar reference before it truncates and
// replays the sidecar, and the counters are adopted.
func (p *pass) restore(s *StepSnapshot, own func() error) error {
	if s.Sampler != p.name {
		return fmt.Errorf("core: %q snapshot restored into a %q run", s.Sampler, p.name)
	}
	if err := own(); err != nil {
		return err
	}
	if p.host != nil {
		if s.Host == nil {
			return fmt.Errorf("core: %s snapshot has no host generator", p.name)
		}
		if err := p.host.SetState(*s.Host); err != nil {
			return err
		}
	}
	if p.streams != nil {
		if err := p.streams.SetState(s.Streams); err != nil {
			return fmt.Errorf("core: %s snapshot does not match the run's streams: %w", p.name, err)
		}
	}
	if err := p.rec.restore(s.TraceRef, s.Step); err != nil {
		return err
	}
	s.Counters.applyTo(p.res)
	return nil
}
