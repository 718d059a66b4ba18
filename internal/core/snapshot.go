package core

import (
	"fmt"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/tempering"
)

// Chain/stepper/EM snapshots: the serializable state of a run at a
// between-steps boundary, the unit of the checkpoint/restore subsystem.
//
// A snapshot is deliberately minimal: it carries only the state that is
// not a pure function of something else in it. The felsen.DeltaCache is
// the motivating example — every cached conditional row is a deterministic
// function of the current tree (evalDelta recomputes each node from its
// children with identical arithmetic whether it runs incrementally or as a
// full Rebase, and the total is always the full pattern sum at the root),
// so a restore rebuilds the cache from the tree and lands on bit-identical
// likelihoods. What must be carried exactly: tree topology and node ages,
// every PRNG state, the recorded trace so far (or, for a spilling run, a
// reference to its durable prefix in the sidecar), and the run's counters.
//
// The restore contract is bit-identical resumption: a run snapshotted at
// an arbitrary step boundary and restored into a freshly started stepper
// with the same configuration produces the same remaining draws, decisions
// and final Result as the uninterrupted run.

// ChainSnapshot is the persistent state of one engine chain: the current
// genealogy plus the chain's tempering exponent and evaluation mode. The
// likelihood, sufficient statistic, age buffer and conditional-likelihood
// cache are all derived from the tree on restore.
type ChainSnapshot struct {
	Tree   *gtree.Tree
	Beta   float64
	Serial bool
}

// Snapshot exports the chain's persistent state. It must be taken at a
// step boundary (no staged proposal pending).
func (s *chainState) Snapshot() ChainSnapshot {
	if s.pending {
		panic("core: chain snapshot with a staged proposal pending")
	}
	return ChainSnapshot{Tree: s.cur.Clone(), Beta: s.beta, Serial: s.serial}
}

// RestoreChainState overwrites the chain with a snapshot: the tree is
// copied in, β and the serial flag adopted, and the log-likelihood,
// conditional cache, age buffer and sufficient statistic rebuilt from the
// tree — bit-identical to the values the running chain carried, because
// the delta evaluation they came from is a pure function of the tree.
func (s *chainState) RestoreChainState(c ChainSnapshot) error {
	if c.Tree == nil {
		return fmt.Errorf("core: chain snapshot has no tree")
	}
	if c.Tree.NTips() != s.cur.NTips() {
		return fmt.Errorf("core: chain snapshot tree has %d tips, chain has %d", c.Tree.NTips(), s.cur.NTips())
	}
	if c.Serial != s.serial {
		return fmt.Errorf("core: chain snapshot evaluation mode (serial=%v) does not match the run (serial=%v)", c.Serial, s.serial)
	}
	if err := c.Tree.Validate(); err != nil {
		return fmt.Errorf("core: chain snapshot tree invalid: %w", err)
	}
	if s.pending {
		s.staged.Discard()
		s.pending = false
	}
	s.cur.CopyFrom(c.Tree)
	s.prop.CopyFrom(c.Tree)
	s.beta = c.Beta
	if s.serial {
		s.logLik = s.eval.LogLikelihoodSerial(s.cur)
	} else {
		s.logLik = s.eval.Rebase(s.cache, s.cur)
	}
	s.ages = s.cur.CoalescentAgesInto(s.ages)
	s.stat = sumKKTFromAges(s.cur.NTips(), s.ages)
	return nil
}

// TraceSnapshot is the recorded trace of a run so far: one entry per draw,
// deep-copied out of the recorder. Only in-memory runs carry it; spilling
// runs carry a TraceRef instead.
type TraceSnapshot struct {
	Stats  []float64
	Ages   [][]float64
	LogLik []float64
}

// TraceRef is a spilling run's trace as a snapshot carries it: not the
// draws, just where the durable prefix of the sidecar ends and where
// the current pass began inside it. This is what makes snapshot size
// independent of how many draws the run has recorded. ESS, RHat and
// Stopped mirror the online diagnostics at snapshot time; they are
// informational (inspect reads them) and rebuilt from the stream on
// restore, never trusted.
type TraceRef struct {
	// Path of the sidecar as the run was configured (informational:
	// restore always uses the resuming run's own configured sidecar).
	Path string
	// NAges is the per-draw age count of the sidecar's frames.
	NAges int
	// Offset and Draws locate the durable end of the sidecar at
	// snapshot time: Offset bytes holding Draws draws in total.
	Offset int64
	Draws  int
	// PassOffset and PassDraws locate the start of the pass the
	// snapshot was taken in: the sidecar is shared by all passes of one
	// estimation, and the pass's own draws are [PassOffset, Offset).
	PassOffset int64
	PassDraws  int
	// Online diagnostics at snapshot time.
	ESS     float64
	RHat    float64
	Stopped bool
}

// snapshot exports the recorder's trace state: a deep copy of the
// draws for in-memory runs, or — after flushing, so the offsets below
// are durable — a sidecar reference for spilling runs.
func (r *recorder) snapshot() (*TraceSnapshot, *TraceRef, error) {
	if r.spill != nil {
		if err := r.spill.Flush(); err != nil {
			return nil, nil, fmt.Errorf("core: trace sidecar: %w", err)
		}
		off, draws := r.spill.Durable()
		ref := &TraceRef{
			Path:       r.spill.Path(),
			NAges:      r.nAges,
			Offset:     off,
			Draws:      draws,
			PassOffset: r.passOff,
			PassDraws:  r.passDraws,
			Stopped:    r.stopped,
		}
		if r.diag != nil {
			ref.ESS = r.diag.ESS()
			ref.RHat = r.diag.RHat()
		}
		return nil, ref, nil
	}
	t := &TraceSnapshot{
		Stats:  append([]float64(nil), r.set.Stats...),
		Ages:   make([][]float64, len(r.set.Ages)),
		LogLik: append([]float64(nil), r.set.LogLik...),
	}
	for i, ages := range r.set.Ages {
		t.Ages[i] = append([]float64(nil), ages...)
	}
	return t, nil, nil
}

// restore replays a snapshot's trace into a fresh recorder that must
// hold exactly step draws afterwards. The snapshot must come from a run
// in the same recording mode:
//
//   - in-memory trace → in-memory recorder: the draws replay through
//     record;
//   - sidecar ref → spilling recorder: the sidecar is truncated back to
//     the checkpointed durable offset (discarding anything written
//     after the snapshot, including a recovered-but-newer tail) and the
//     pass's draws replay through the online diagnostics.
//
// A mismatched pairing is an error, raised before any file is touched.
func (r *recorder) restore(t *TraceSnapshot, ref *TraceRef, step int) error {
	if r.n != 0 {
		return fmt.Errorf("core: trace restore into a recorder that already has %d draws", r.n)
	}
	if step < 0 || step > r.total {
		return fmt.Errorf("core: trace restore at step %d, run records at most %d", step, r.total)
	}
	switch {
	case t != nil && ref != nil:
		return fmt.Errorf("core: snapshot carries both a trace and a sidecar reference")
	case t != nil && r.spill == nil:
		return r.restoreTrace(t, step)
	case ref != nil && r.spill != nil:
		return r.restoreRef(ref, step)
	case t != nil:
		return fmt.Errorf("core: in-memory trace snapshot restored into a run that spills to a trace sidecar")
	case ref != nil:
		return fmt.Errorf("core: sidecar trace snapshot restored into a run that records in memory")
	default:
		return fmt.Errorf("core: snapshot carries no trace")
	}
}

func (r *recorder) restoreTrace(t *TraceSnapshot, step int) error {
	if len(t.Stats) != step {
		return fmt.Errorf("core: trace snapshot has %d draws, snapshot step is %d", len(t.Stats), step)
	}
	if len(t.Stats) != len(t.Ages) || len(t.Stats) != len(t.LogLik) {
		return fmt.Errorf("core: trace snapshot is ragged: %d stats, %d age rows, %d log-likelihoods",
			len(t.Stats), len(t.Ages), len(t.LogLik))
	}
	for i := range t.Stats {
		if len(t.Ages[i]) != r.nAges {
			return fmt.Errorf("core: trace snapshot draw %d has %d ages, want %d", i, len(t.Ages[i]), r.nAges)
		}
		if err := r.record(t.Stats[i], t.Ages[i], t.LogLik[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *recorder) restoreRef(ref *TraceRef, step int) error {
	if ref.NAges != r.nAges {
		return fmt.Errorf("core: sidecar reference has %d ages per draw, run has %d", ref.NAges, r.nAges)
	}
	if got := ref.Draws - ref.PassDraws; got != step {
		return fmt.Errorf("core: sidecar reference holds %d pass draws, snapshot step is %d", got, step)
	}
	// Rewind the sidecar to the checkpoint: draws recorded after the
	// snapshot was taken are discarded, and the checkpoint's draw count
	// is re-verified against the frames on disk.
	if err := r.spill.TruncateTo(ref.Offset, ref.Draws); err != nil {
		return fmt.Errorf("core: trace sidecar: %w", err)
	}
	r.passOff = ref.PassOffset
	r.passDraws = ref.PassDraws
	err := r.spill.Replay(ref.PassOffset, ref.Offset, func(stat float64, ages []float64, logLik float64) error {
		r.observe(stat)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: trace sidecar: %w", err)
	}
	if r.n != step {
		return fmt.Errorf("core: sidecar replay yielded %d draws, snapshot step is %d", r.n, step)
	}
	return nil
}

// Counters are the cumulative Result tallies a snapshot carries.
type Counters struct {
	Accepted        int
	Proposals       int
	FailedProposals int
	Swaps           int
	SwapAttempts    int
}

func countersOf(res *Result) Counters {
	return Counters{
		Accepted:        res.Accepted,
		Proposals:       res.Proposals,
		FailedProposals: res.FailedProposals,
		Swaps:           res.Swaps,
		SwapAttempts:    res.SwapAttempts,
	}
}

func (c Counters) applyTo(res *Result) {
	res.Accepted = c.Accepted
	res.Proposals = c.Proposals
	res.FailedProposals = c.FailedProposals
	res.Swaps = c.Swaps
	res.SwapAttempts = c.SwapAttempts
}

// StepSnapshot is the complete between-steps state of one started
// sampling run. One struct covers all four samplers; the Sampler tag
// selects which fields are meaningful:
//
//   - "mh": Host (the chain's generator), Chains[0], Trace, Counters, Step.
//   - "gmh": Host, Streams (one per proposal thread), Cur (the current
//     state's slot index — it decides how streams map onto slots and the
//     index-chain walk order, so it must survive), Chains[0] (the current
//     slot's tree), Trace, Counters. Step is the number of recorded draws.
//   - "heated": Host (the swap generator), Streams (one per rung),
//     Chains (every rung in ladder order), Ladder (the temperature-ladder
//     controller's runtime state — the adapted β schedule, per-pair swap
//     windows and adaptation clock; always set), Trace, Counters, Step.
//   - "multichain": Subs (one "mh" snapshot per chain, in chain order).
type StepSnapshot struct {
	Sampler string
	Step    int
	Cur     int
	Host    rng.MTState
	Streams []rng.MTState
	Chains  []ChainSnapshot
	Ladder  *tempering.State
	// Trace carries the draws of an in-memory run; TraceRef the sidecar
	// reference of a spilling run. Exactly one is set, and only TraceRef
	// can be checkpointed to disk.
	Trace    *TraceSnapshot
	TraceRef *TraceRef
	Counters
	Subs []*StepSnapshot
}

// SnapshotStepper is a sampling run that has been started but is driven
// from outside: each Step advances the chain by one transition (one
// Metropolis step, one GMH proposal round, one tempered-ladder sweep),
// Done reports whether every configured draw has been recorded, and
// Finish finalizes the Result. StepSampler.Start returns one.
//
// Steppers exist so a run loop is not owned by the sampler: a batch
// scheduler can hold many concurrent runs and interleave their steps over
// one shared device pool, time-slicing tenants at transition granularity.
// A stepper is not safe for concurrent use; it is the scheduling unit,
// and all of its state (PRNG streams, chain engine state, recorder) is
// owned by the run, so two runs never share mutable state and a run's
// draws are identical however its steps are interleaved with other runs'.
//
// Its between-steps state can be exported and restored. Restore must be
// called on a freshly started stepper (same sampler, same ChainConfig)
// before its first Step; Snapshot must be called between steps — the
// scheduler guarantees both by construction. Snapshot can fail only in
// spill mode, where it must make the sidecar durable before referencing
// it.
type SnapshotStepper interface {
	// Step performs one transition and records its draw(s). An error is
	// fatal to the run.
	Step() error
	// Done reports whether the configured number of draws is recorded.
	Done() bool
	// Finish returns the completed run's result. It must be called once,
	// after Done becomes true.
	Finish() (*Result, error)
	Snapshot() (*StepSnapshot, error)
	Restore(*StepSnapshot) error
}

// EMSnapshot is the between-steps state of a step-driven estimation: the
// outer loop's position plus, when a sampling pass is mid-flight, the
// pass's stepper snapshot. The iteration's ChainConfig is not stored — it
// is re-derived from Theta and It exactly as the running loop derives it.
type EMSnapshot struct {
	Theta   float64
	It      int
	Cur     *gtree.Tree
	History []EMIteration
	Active  *StepSnapshot
}

// Snapshot exports the estimation's state at a step boundary. Finished or
// failed runs cannot be snapshotted: their outcome is a Result, not a
// resumable state.
func (e *EMRun) Snapshot() (*EMSnapshot, error) {
	if e.done {
		return nil, fmt.Errorf("core: snapshot of a finished EM run")
	}
	snap := &EMSnapshot{
		Theta:   e.theta,
		It:      e.it,
		Cur:     e.cur.Clone(),
		History: append([]EMIteration(nil), e.res.History...),
	}
	if e.active != nil {
		active, err := e.active.Snapshot()
		if err != nil {
			return nil, err
		}
		snap.Active = active
	}
	return snap, nil
}

// Restore positions a freshly started estimation at a snapshot: the
// driving θ, iteration index, chain state and history are adopted, and a
// mid-flight sampling pass is restarted and restored so its remaining
// transitions are bit-identical to the uninterrupted run's.
func (e *EMRun) Restore(snap *EMSnapshot) error {
	if e.it != 0 || e.active != nil || e.done || len(e.res.History) != 0 {
		return fmt.Errorf("core: EM restore target is not a fresh run")
	}
	if snap.Theta <= 0 {
		return fmt.Errorf("core: EM snapshot theta %v must be positive", snap.Theta)
	}
	if snap.It < 0 || snap.It >= e.cfg.Iterations {
		return fmt.Errorf("core: EM snapshot iteration %d out of range [0, %d)", snap.It, e.cfg.Iterations)
	}
	if snap.Cur == nil {
		return fmt.Errorf("core: EM snapshot has no chain state")
	}
	if err := snap.Cur.Validate(); err != nil {
		return fmt.Errorf("core: EM snapshot tree invalid: %w", err)
	}
	e.theta = snap.Theta
	e.it = snap.It
	e.cur = snap.Cur.Clone()
	e.res.History = append(e.res.History[:0], snap.History...)
	if snap.Active == nil {
		return nil
	}
	run, err := e.sampler.Start(e.cur, e.chainConfig())
	if err != nil {
		return fmt.Errorf("core: EM restore: %w", err)
	}
	if err := run.Restore(snap.Active); err != nil {
		return fmt.Errorf("core: EM restore: %w", err)
	}
	e.active = run
	return nil
}
