package core

import (
	"fmt"
	"math"

	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/stats"
	"mpcgs/internal/trace"
)

// chainState is the shared chain engine: the complete working state of one
// Markov chain over genealogies, with every genealogy move delta-evaluated
// against the chain's own conditional-likelihood cache and every per-step
// buffer owned by the state so the step loop allocates nothing.
//
// One chainState backs one chain of any sampler — the MH baseline, each
// rung of the MC³ ladder (with its own tempering exponent β), the
// genealogy half of the Bayesian joint sampler, and each independent chain
// of MultiChain. The lifecycle of a step is
//
//	propose → (decide) → accept | reject
//
// or the bundled step(), which also draws the Metropolis decision.
// propose resimulates a neighbourhood of cur into prop (through the
// state's own resim.Scratch, so the region analysis is allocation-free)
// and stages an incremental evaluation against the cache: only the
// resimulated nodes and their root path are recomputed, the paper's
// in-device-memory data reuse (§4.4) generalized from the GMH kernel to
// every sampler. accept commits the staged conditionals into the cache
// (one memory copy, no re-evaluation) and swaps cur/prop; reject discards
// them — the cache never saw the proposal, so rejection is free.
//
// A chainState is not safe for concurrent use; it is the unit of
// parallelism. Ladders and chain pools run one state per device stream.
type chainState struct {
	eval *felsen.Evaluator
	// serial is the evaluator's reference mode (felsen.NewReference):
	// every proposal is re-evaluated from scratch with
	// LogLikelihoodSerial and no delta cache is kept. It is the baseline
	// of the paper's speedup measurements and the oracle of the engine's
	// equivalence tests.
	serial bool
	// beta is the tempering exponent on the data likelihood: the chain
	// targets P(D|G)^β·P(G|θ). 1 is the untempered posterior; MC³ ladder
	// rungs use β < 1. The prior is never tempered, matching LAMARC's
	// heating (Kuhner 2006). Tempering the delta evaluation is exact by
	// construction — the exponent distributes over the per-pattern
	// product, so β scales the total log-likelihood — and it lives here,
	// outside the evaluator: each rung's cache stores untempered
	// conditionals and never needs to know another rung's β, which is
	// what lets swaps exchange whole states without touching any cache.
	beta float64

	cache  *felsen.DeltaCache
	staged felsen.DeltaEval
	// pending reports whether staged holds an unresolved evaluation.
	pending bool

	cur     *gtree.Tree
	prop    *gtree.Tree
	logLik  float64 // untempered log P(D|cur)
	propLik float64 // untempered log P(D|prop) of the pending proposal
	ages    []float64
	stat    float64
	scratch *resim.Scratch
}

// newChainState builds the engine state for one chain starting at init,
// with its own delta cache (or none, on a reference evaluator).
func newChainState(eval *felsen.Evaluator, init *gtree.Tree) *chainState {
	s := &chainState{
		eval:    eval,
		serial:  eval.Reference(),
		beta:    1,
		cur:     init.Clone(),
		prop:    init.Clone(),
		scratch: resim.NewScratch(),
	}
	if s.serial {
		s.logLik = eval.LogLikelihoodSerial(s.cur)
	} else {
		s.cache = eval.NewDeltaCache()
		s.logLik = eval.Rebase(s.cache, s.cur)
	}
	s.ages = s.cur.CoalescentAgesInto(make([]float64, 0, init.NInterior()))
	s.stat = sumKKTFromAges(init.NTips(), s.ages)
	return s
}

// newChainLadder builds p chain states all starting at init, paying for
// one evaluation of init and replicating its result — log-likelihood and,
// in delta mode, the whole conditional cache — across the rungs instead
// of re-evaluating the same tree p times.
func newChainLadder(eval *felsen.Evaluator, init *gtree.Tree, p int) []*chainState {
	states := make([]*chainState, p)
	states[0] = newChainState(eval, init)
	for i := 1; i < p; i++ {
		s := &chainState{
			eval:    eval,
			serial:  states[0].serial,
			beta:    1,
			cur:     init.Clone(),
			prop:    init.Clone(),
			scratch: resim.NewScratch(),
			logLik:  states[0].logLik,
			stat:    states[0].stat,
		}
		if !s.serial {
			s.cache = eval.NewDeltaCache()
			s.cache.CopyFrom(states[0].cache)
		}
		s.ages = s.cur.CoalescentAgesInto(make([]float64, 0, init.NInterior()))
		states[i] = s
	}
	return states
}

// propose draws the next candidate: a uniform neighbourhood target, its
// resimulation from the conditional coalescent prior at theta, and the
// candidate's data log-likelihood. The proposal stays pending until accept
// or reject resolves it. On a resimulation error nothing is pending and
// the chain state is unchanged.
//
//mpcgs:hotpath
func (s *chainState) propose(theta float64, src rng.Source) error {
	target := resim.PickTarget(s.cur, src)
	s.prop.CopyFrom(s.cur)
	if err := resim.ResimulateScratch(s.prop, target, theta, src, s.scratch); err != nil {
		return err
	}
	if s.serial {
		s.propLik = s.eval.LogLikelihoodSerial(s.prop)
	} else {
		s.staged = s.eval.StageDelta(s.cache, s.prop)
		s.propLik = s.staged.LogLik()
		s.pending = true
	}
	return nil
}

// logAcceptRatio returns the tempered log Metropolis ratio of the pending
// proposal: β·(log P(D|G') − log P(D|G)). The conditional-prior proposal
// cancels the (untempered) prior exactly as in Eq. 28.
func (s *chainState) logAcceptRatio() float64 {
	return s.beta * (s.propLik - s.logLik)
}

// accept resolves the pending proposal as the new current state.
//
//mpcgs:hotpath
func (s *chainState) accept() {
	if s.pending {
		s.staged.Commit()
		s.pending = false
	}
	s.cur, s.prop = s.prop, s.cur
	s.logLik = s.propLik
	s.ages = s.cur.CoalescentAgesInto(s.ages)
	s.stat = sumKKTFromAges(s.cur.NTips(), s.ages)
}

// reject drops the pending proposal; the cache is untouched.
//
//mpcgs:hotpath
func (s *chainState) reject() {
	if s.pending {
		s.staged.Discard()
		s.pending = false
	}
}

// step performs one full Metropolis step at driving value theta: propose,
// draw the accept decision against the tempered likelihood ratio, resolve.
// A resimulation failure counts as a rejection-with-error; the caller
// decides whether that is fatal (MH) or a skipped move (ladder rungs).
//
//mpcgs:hotpath
func (s *chainState) step(theta float64, src rng.Source) (bool, error) {
	if err := s.propose(theta, src); err != nil {
		return false, err
	}
	if metropolis(s.logAcceptRatio(), src) {
		s.accept()
		return true, nil
	}
	s.reject()
	return false, nil
}

// metropolis is the Metropolis test of a move with log acceptance ratio
// logr: an uphill move is accepted without a draw, a downhill one with
// probability exp(logr) against one uniform from src.
//
//mpcgs:hotpath
func metropolis(logr float64, src rng.Source) bool {
	return logr >= 0 || src.Float64() < math.Exp(logr)
}

// Auto-stop cadence: the convergence targets are evaluated every
// stopCheckEvery post-burn-in draws once stopMinDraws of them exist.
// Both are constants of the draw stream, not of wall time or scheduler
// quanta, so a resumed run re-evaluates at exactly the same draws and
// stops at exactly the same point — the bit-identical resume contract
// extends to the stop decision.
const (
	stopCheckEvery = 64
	stopMinDraws   = 256
)

// spillFlushBytes bounds the in-memory frame buffer of a spilling
// recorder between checkpoints: once this many encoded bytes are
// pending, the recorder flushes a frame mid-interval. Draw contents
// and durable checkpoint offsets are unaffected — only the physical
// frame boundaries move — so the bound is free to tune.
const spillFlushBytes = 1 << 20

// recorder accumulates chain draws. It has two modes:
//
//   - In-memory (Trace unset): draws append to a SampleSet, age
//     vectors copied into one flat arena carved a record at a time —
//     recorded draws never alias a live chain buffer or each other's
//     backing arrays.
//   - Spill (Trace set): draws stream to the append-only sidecar via
//     trace.Writer and the SampleSet stays empty until finalize reads
//     the pass back — recorder memory is bounded by the pending frame
//     buffer and the fixed-size online diagnostics, independent of the
//     run length.
//
// In either mode, when stop targets are configured the post-burn-in
// stat stream additionally feeds a bounded stats.OnlineDiag, and the
// recorder flips stopped once the targets are met.
type recorder struct {
	set   *SampleSet
	arena []float64
	nAges int
	n     int // draws recorded this pass

	burnin int
	total  int

	// Spill mode.
	spill     *trace.Writer
	passOff   int64 // sidecar durable offset at pass start
	passDraws int   // sidecar total draw count at pass start

	// Online diagnostics and the auto-stop rule.
	diag       *stats.OnlineDiag
	essTarget  float64
	rhatTarget float64
	stopped    bool
	stopESS    float64
	stopRHat   float64
}

// newRecorder builds the recorder for a run of cfg.Burnin+cfg.Samples
// draws over nTips-tip genealogies, opening (and recovering) the
// sidecar when cfg spills.
func newRecorder(nTips int, cfg ChainConfig) (*recorder, error) {
	total := cfg.Burnin + cfg.Samples
	nAges := nTips - 1
	r := &recorder{
		set: &SampleSet{
			NTips:  nTips,
			Theta0: cfg.Theta,
			Burnin: cfg.Burnin,
		},
		nAges:      nAges,
		burnin:     cfg.Burnin,
		total:      total,
		essTarget:  cfg.ESSTarget,
		rhatTarget: cfg.RHatTarget,
	}
	if cfg.Trace != nil {
		w, err := trace.Open(cfg.Trace.Path, nAges)
		if err != nil {
			return nil, fmt.Errorf("core: trace sidecar: %w", err)
		}
		r.spill = w
		r.passOff, r.passDraws = w.Durable()
		r.diag = stats.NewOnlineDiag()
		return r, nil
	}
	r.set.Stats = make([]float64, 0, total)
	r.set.Ages = make([][]float64, 0, total)
	r.set.LogLik = make([]float64, 0, total)
	r.arena = make([]float64, total*nAges)
	if r.hasTargets() {
		r.diag = stats.NewOnlineDiag()
	}
	return r, nil
}

func (r *recorder) hasTargets() bool { return r.essTarget > 0 || r.rhatTarget > 0 }

// len returns the number of draws recorded this pass.
func (r *recorder) len() int { return r.n }

// full reports whether the pass is over: the draw budget is exhausted
// or the stop rule fired.
func (r *recorder) full() bool { return r.n >= r.total || r.stopped }

// record appends one draw, copying ages out of the caller's buffer (or
// streaming them to the sidecar in spill mode).
func (r *recorder) record(stat float64, ages []float64, logLik float64) error {
	if r.spill != nil {
		r.spill.Append(stat, ages, logLik)
		if r.spill.PendingBytes() >= spillFlushBytes {
			if err := r.spill.Flush(); err != nil {
				return fmt.Errorf("core: trace sidecar: %w", err)
			}
		}
	} else {
		rec := r.arena[:r.nAges:r.nAges]
		r.arena = r.arena[r.nAges:]
		copy(rec, ages)
		r.set.Stats = append(r.set.Stats, stat)
		r.set.Ages = append(r.set.Ages, rec)
		r.set.LogLik = append(r.set.LogLik, logLik)
	}
	r.observe(stat)
	return nil
}

// recordState appends the chain's current state.
func (r *recorder) recordState(s *chainState) error {
	return r.record(s.stat, s.ages, s.logLik)
}

// observe counts one recorded draw and advances the online
// diagnostics and stop rule. It is shared by live recording and the
// restore replay, which is what makes the diagnostic state — and
// therefore the stop decision — a pure function of the draw stream.
//
//mpcgs:hotpath
func (r *recorder) observe(stat float64) {
	r.n++
	if r.diag == nil || r.n <= r.burnin {
		return
	}
	r.diag.Add(stat)
	if r.stopped || !r.hasTargets() {
		return
	}
	post := r.n - r.burnin
	if post < stopMinDraws || post%stopCheckEvery != 0 {
		return
	}
	ess := r.diag.ESS()
	if r.essTarget > 0 && ess < r.essTarget {
		return
	}
	rhat := r.diag.RHat() //mpcgsvet:ignore-alloc split R-hat allocates its halves' moments at most once per stopCheckEvery draws, not per draw
	// NaN (not yet enough batches) never satisfies a set R-hat target.
	if r.rhatTarget > 0 && !(rhat <= r.rhatTarget) {
		return
	}
	r.stopped = true
	r.stopESS = ess
	r.stopRHat = rhat
}

// finalize completes the pass: in spill mode it flushes the sidecar
// and reads the pass's draws back into the SampleSet (the only point a
// spilling run materializes its trace — maximization needs the full
// post-burn-in stat vector), then closes the writer. In-memory mode is
// a no-op.
func (r *recorder) finalize() error {
	if r.spill == nil {
		return nil
	}
	if err := r.spill.Flush(); err != nil {
		return fmt.Errorf("core: trace sidecar: %w", err)
	}
	end, _ := r.spill.Durable()
	r.set.Stats = make([]float64, 0, r.n)
	r.set.Ages = make([][]float64, 0, r.n)
	r.set.LogLik = make([]float64, 0, r.n)
	arena := make([]float64, r.n*r.nAges)
	err := r.spill.Replay(r.passOff, end, func(stat float64, ages []float64, logLik float64) error {
		rec := arena[:r.nAges:r.nAges]
		arena = arena[r.nAges:]
		copy(rec, ages)
		r.set.Stats = append(r.set.Stats, stat)
		r.set.Ages = append(r.set.Ages, rec)
		r.set.LogLik = append(r.set.LogLik, logLik)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: trace sidecar: %w", err)
	}
	if r.set.Len() != r.n {
		return fmt.Errorf("core: trace sidecar replayed %d draws, recorder has %d", r.set.Len(), r.n)
	}
	if err := r.spill.Close(); err != nil {
		return fmt.Errorf("core: trace sidecar: %w", err)
	}
	r.spill = nil
	return nil
}
