package core

import (
	"fmt"
	"math"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/tempering"
)

// Heated is Metropolis-coupled MCMC (MC³), the heating strategy of the
// production LAMARC package (Kuhner 2006): P chains run the same
// neighbourhood-resimulation kernel against tempered posteriors
// P(D|G)^{β_i}·P(G|θ) with 1 = β_0 > β_1 > ... > β_{P-1}, and adjacent
// chains propose state swaps. Hot chains traverse likelihood valleys that
// trap the cold chain, and the swap moves ferry good states down the
// ladder. Only the cold chain's draws are recorded.
//
// Every rung is one chain-engine state on the persistent device pool: one
// PRNG stream, one resimulation scratch, and one conditional-likelihood
// cache per rung, so each within-chain step delta-evaluates only the
// resimulated neighbourhood — the long-chain workload where incremental
// evaluation compounds. Swaps exchange whole rung states (trees together
// with their caches), so no cache ever needs rebasing after a swap. Over
// a reference evaluator every rung re-evaluates proposals from scratch.
//
// The β schedule is owned by a tempering.Ladder controller. By default it
// is the fixed geometric ladder; with Adapt set, the controller retunes
// the interior temperatures from the observed per-pair swap rates during
// burn-in (LAMARC's runtime heating adaptation, Vousden-style stochastic
// approximation) and freezes the ladder when burn-in ends, so every
// recorded estimation draw targets a fixed, correct distribution.
//
// MC³ parallelizes across the ladder, but like the independent-chains
// approach it cannot parallelize burn-in below one chain's length — the
// contrast motivating the paper's GMH sampler. It is provided both as a
// baseline and because it is the search strategy the reference package
// actually ships.
type Heated struct {
	eval *felsen.Evaluator
	dev  *device.Device
	// Chains is the ladder size P (>= 1; 1 reduces to plain MH).
	Chains int
	// MaxTemp is the hottest chain's temperature T_{P-1} (β = 1/T).
	// Zero selects 8; values below 1 (including negative ones) are
	// rejected at Start. Intermediate temperatures start geometric.
	MaxTemp float64
	// SwapEvery is the number of within-chain steps between swap
	// attempts. Zero selects 1 (a swap attempt every step, LAMARC's
	// default behaviour); negative values are rejected at Start.
	SwapEvery int
	// Adapt turns on swap-rate-driven temperature-ladder adaptation
	// during burn-in. Off, the ladder is the fixed geometric reference
	// schedule (bit-identical to the historical behaviour).
	Adapt bool
	// SwapWindow is the sliding-window size (per adjacent pair) the
	// controller estimates swap rates over. Zero selects
	// tempering.DefaultWindow; negative values are rejected at Start.
	SwapWindow int
}

// NewHeated builds an MC³ sampler with the given ladder size.
func NewHeated(eval *felsen.Evaluator, dev *device.Device, chains int) *Heated {
	return &Heated{eval: eval, dev: dev, Chains: chains}
}

// heatedRun is one started MC³ ladder: a SnapshotStepper whose Step is one
// parallel sweep of tempered within-chain moves plus a swap attempt.
type heatedRun struct {
	h         *Heated
	p         int
	swapEvery int
	burnin    int
	total     int

	theta    float64
	ladder   *tempering.Ladder
	states   []*chainState
	host     *rng.MT19937
	streams  *rng.StreamSet
	accepted []bool
	kernel   func(i int)

	rec  *recorder
	res  *Result
	step int
}

// Start implements StepSampler.
func (h *Heated) Start(init *gtree.Tree, cfg ChainConfig) (SnapshotStepper, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := h.eval.CheckTree(init); err != nil {
		return nil, err
	}
	if init.NTips() < 3 {
		return nil, fmt.Errorf("core: sampler needs at least 3 sequences, got %d", init.NTips())
	}
	p := h.Chains
	if p < 1 {
		return nil, fmt.Errorf("core: heated sampler needs at least 1 chain, got %d", p)
	}
	maxTemp := h.MaxTemp
	if maxTemp == 0 {
		maxTemp = 8
	}
	if maxTemp < 1 {
		return nil, fmt.Errorf("core: MaxTemp %v must be at least 1", maxTemp)
	}
	if h.SwapEvery < 0 {
		return nil, fmt.Errorf("core: SwapEvery %d must not be negative", h.SwapEvery)
	}
	swapEvery := h.SwapEvery
	if swapEvery == 0 {
		swapEvery = 1
	}
	if h.SwapWindow < 0 {
		return nil, fmt.Errorf("core: SwapWindow %d must not be negative", h.SwapWindow)
	}

	// The β schedule lives in the ladder controller: geometric
	// T_i = MaxTemp^{i/(P-1)} initially, retuned at swap attempts during
	// burn-in when Adapt is on.
	ladder, err := tempering.New(tempering.Config{
		Chains:  p,
		MaxTemp: maxTemp,
		Adapt:   h.Adapt,
		Window:  h.SwapWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	rec, err := newRecorder(init.NTips(), cfg)
	if err != nil {
		return nil, err
	}
	r := &heatedRun{
		h:         h,
		p:         p,
		swapEvery: swapEvery,
		burnin:    cfg.Burnin,
		total:     cfg.Burnin + cfg.Samples,
		theta:     cfg.Theta,
		ladder:    ladder,
		host:      seedSource(cfg.Seed, 5),
		streams:   rng.NewStreamSet(p, cfg.Seed^0xc2b2ae3d27d4eb4f),
		accepted:  make([]bool, p),
		rec:       rec,
	}

	// One engine state per rung: tree pair, delta cache, resimulation
	// scratch and tempering exponent, driven by the rung's own stream.
	// The shared starting tree is evaluated once and replicated.
	r.states = newChainLadder(h.eval, init, p)
	for i := range r.states {
		r.states[i].beta = ladder.Beta(i)
	}
	r.res = &Result{Samples: r.rec.set}

	// One tempered MH step per rung, in parallel across the ladder on the
	// persistent pool. Each rung owns its stream, state and scratch, so
	// results are deterministic regardless of scheduling; the closure is
	// built once and reused by every launch. A rung whose resimulation
	// lands in an infeasible region simply skips the move.
	r.kernel = func(i int) {
		acc, _ := r.states[i].step(r.theta, r.streams.Stream(i))
		r.accepted[i] = acc
	}
	return r, nil
}

// Step implements SnapshotStepper: one ladder sweep plus a swap attempt.
func (r *heatedRun) Step() error {
	r.h.dev.Launch(r.p, r.kernel)
	r.res.Proposals += r.p
	if r.accepted[0] {
		r.res.Accepted++
	}

	// Swap attempt between a random adjacent pair (serial, cheap).
	// Accepted swaps exchange the whole rung states: the trees move,
	// the temperatures stay with their ladder positions. The controller
	// records the outcome and — during burn-in, with adaptation on —
	// retunes the ladder, after which every rung's β is re-pinned to the
	// (possibly moved) schedule.
	if r.p > 1 && r.step%r.swapEvery == 0 {
		i := rng.Intn(r.host, r.p-1)
		j := i + 1
		bi, bj := r.ladder.Beta(i), r.ladder.Beta(j)
		logr := (bi - bj) * (r.states[j].logLik - r.states[i].logLik)
		swapped := logr >= 0 || r.host.Float64() < math.Exp(logr)
		if swapped {
			r.states[i], r.states[j] = r.states[j], r.states[i]
			r.res.Swaps++
		}
		r.res.SwapAttempts++
		r.ladder.Record(i, swapped, r.step < r.burnin)
		for k := range r.states {
			r.states[k].beta = r.ladder.Beta(k)
		}
	}

	if err := r.rec.recordState(r.states[0]); err != nil {
		return err
	}
	r.step++
	return nil
}

// Done implements SnapshotStepper.
func (r *heatedRun) Done() bool { return r.rec.full() }

// Finish implements SnapshotStepper.
func (r *heatedRun) Finish() (*Result, error) {
	if err := r.rec.finalize(); err != nil {
		return nil, err
	}
	r.rec.applyOutcome(r.res)
	r.res.Final = r.states[0].cur.Clone()
	r.res.Betas = r.ladder.Betas()
	r.res.LadderAdapted = r.ladder.Adaptive()
	r.res.LadderAdaptations = r.ladder.Adaptations()
	r.res.PairSwapAttempts = r.ladder.PairAttempts()
	r.res.PairSwaps = r.ladder.PairAccepts()
	r.res.EstPairSwapAttempts = r.ladder.EstPairAttempts()
	r.res.EstPairSwaps = r.ladder.EstPairAccepts()
	return r.res, nil
}

// Snapshot implements SnapshotStepper: every rung's chain state in ladder
// order, plus the swap generator, all rung streams, and the ladder
// controller's runtime state (the adapted schedule, per-pair windows and
// adaptation clock).
func (r *heatedRun) Snapshot() (*StepSnapshot, error) {
	chains := make([]ChainSnapshot, r.p)
	for i, st := range r.states {
		chains[i] = st.Snapshot()
	}
	t, ref, err := r.rec.snapshot()
	if err != nil {
		return nil, err
	}
	return &StepSnapshot{
		Sampler:  "heated",
		Step:     r.step,
		Host:     r.host.State(),
		Streams:  r.streams.State(),
		Chains:   chains,
		Ladder:   r.ladder.Snapshot(),
		Trace:    t,
		TraceRef: ref,
		Counters: countersOf(r.res),
	}, nil
}

// Restore implements SnapshotStepper.
func (r *heatedRun) Restore(s *StepSnapshot) error {
	if s.Sampler != "heated" {
		return fmt.Errorf("core: %q snapshot restored into a heated run", s.Sampler)
	}
	if len(s.Chains) != r.p {
		return fmt.Errorf("core: heated snapshot has %d rungs, run is configured for %d", len(s.Chains), r.p)
	}
	if s.Step < 0 || s.Step > r.total {
		return fmt.Errorf("core: heated snapshot at step %d, run has %d", s.Step, r.total)
	}
	if s.Ladder == nil {
		return fmt.Errorf("core: heated snapshot has no ladder state")
	}
	if err := r.ladder.Restore(s.Ladder); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for i := range s.Chains {
		// Swaps keep β pinned to the ladder position, so a rung's
		// snapshot β must equal the restored controller's schedule
		// exactly; a mismatch means Chains or MaxTemp changed since the
		// snapshot.
		if s.Chains[i].Beta != r.ladder.Beta(i) {
			return fmt.Errorf("core: heated snapshot rung %d has beta %v, ladder has %v (MaxTemp/Chains changed?)",
				i, s.Chains[i].Beta, r.ladder.Beta(i))
		}
	}
	if err := r.host.SetState(s.Host); err != nil {
		return err
	}
	if err := r.streams.SetState(s.Streams); err != nil {
		return err
	}
	for i := range s.Chains {
		if err := r.states[i].RestoreChainState(s.Chains[i]); err != nil {
			return fmt.Errorf("core: heated rung %d: %w", i, err)
		}
	}
	if err := r.rec.restore(s.Trace, s.TraceRef, s.Step); err != nil {
		return err
	}
	s.Counters.applyTo(r.res)
	r.step = s.Step
	return nil
}
