package core

import (
	"fmt"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/logspace"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
)

// GMH is the Generalized Metropolis-Hastings sampler of Calderhead applied
// to coalescent genealogies: the paper's contribution (§4.1, §4.3).
//
// Each iteration draws the auxiliary variable φ (a target neighbourhood,
// uniform over non-root interior nodes), generates N proposals in parallel
// by resimulating that same neighbourhood of the current state — each
// proposal on its own device thread with its own PRNG stream, computing
// its own data likelihood exactly as the paper's proposal kernel does
// (§5.2.1) — and then draws N states from the stationary
// distribution of the index chain, whose weights reduce to the data
// likelihoods P(D|G̃_i) (Eq. 29-31). The last draw seeds the next proposal
// round. Burn-in uses the same parallel machinery: there is no serial
// burn-in component (§4.1).
//
// Everything a round's proposals share is computed once per round on the
// launching goroutine: the region analysis of φ's neighbourhood
// (resim.Scratch.Analyze — interval cut, k_in sweep, transition and
// completion probabilities), which every proposal thread then samples
// from read-only, and the index chain's normalisation (rng.LogTable),
// which all N draws reuse. When the analysis fails (θ out of range), every
// candidate of the round fails with its error without touching a stream.
//
// The round loop is allocation-free: proposal trees, weight/statistic
// arrays, age buffers and the kernel closure are set up once and reused
// every round, and proposal likelihoods are computed incrementally against
// a felsen.DeltaCache of the current state's conditionals — the in-device-
// memory data reuse that lets the proposal kernel's work stay proportional
// to the resimulated neighbourhood rather than the whole genealogy.
//
// Over a reference evaluator (felsen.NewReference) there is no cache:
// each proposal thread evaluates its candidate from scratch with
// LogLikelihood, which itself launches a per-site kernel on the
// evaluator's device — the paper's nested dynamic parallelism (§4.4).
// With N at or above the worker count the proposal-level parallelism
// already saturates the device, so the delta path is the default.
type GMH struct {
	eval *felsen.Evaluator
	dev  *device.Device
	// Proposals is N, the number of new candidates per round.
	Proposals int
	// PerCandidate forces the pre-wave dispatch: each candidate's
	// likelihood evaluated by its own device thread through
	// LogLikelihoodDelta instead of the round's fused
	// (proposal × pattern-block) wave grid. The two paths are bit-identical
	// (the equivalence suite pins this), so the toggle exists as the wave's
	// oracle and for A/B benchmarks, not as a semantic switch.
	PerCandidate bool
}

// NewGMH builds the multiple-proposal sampler with N proposals per round
// executing on dev.
func NewGMH(eval *felsen.Evaluator, dev *device.Device, proposals int) *GMH {
	return &GMH{eval: eval, dev: dev, Proposals: proposals}
}

// gmhRun is one started GMH chain: a SnapshotStepper whose Step is a full
// proposal round (parallel candidate generation plus the index-chain
// draws), the natural scheduling unit of the multiple-proposal sampler.
type gmhRun struct {
	g     *GMH
	theta float64
	n     int
	total int

	host    *rng.MT19937
	streams *rng.StreamSet
	// scratch holds the round's region analysis, shared read-only by
	// every proposal thread; pick is the index chain's weight table.
	scratch *resim.Scratch
	pick    *rng.LogTable

	set   []*gtree.Tree
	logw  []float64
	stats []float64
	errs  []error
	ages  [][]float64
	cur   int // index of the current state within the set
	cache *felsen.DeltaCache

	// wave is the fused round evaluator (nil on the per-candidate and
	// reference paths); waveTrees is its slot-indexed input, rebuilt
	// every round with nil for the current state and failed candidates.
	wave      *felsen.Wave
	waveTrees []*gtree.Tree

	rec *recorder
	out *SampleSet
	res *Result

	slots  []int
	kernel func(tid int)
}

// Start implements StepSampler.
func (g *GMH) Start(init *gtree.Tree, cfg ChainConfig) (SnapshotStepper, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := g.eval.CheckTree(init); err != nil {
		return nil, err
	}
	if init.NTips() < 3 {
		return nil, fmt.Errorf("core: sampler needs at least 3 sequences, got %d", init.NTips())
	}
	n := g.Proposals
	if n < 1 {
		return nil, fmt.Errorf("core: GMH needs at least 1 proposal per round, got %d", n)
	}

	r := &gmhRun{
		g:       g,
		theta:   cfg.Theta,
		n:       n,
		total:   cfg.Burnin + cfg.Samples,
		host:    seedSource(cfg.Seed, 2),
		streams: rng.NewStreamSet(n, cfg.Seed^0x9e3779b97f4a7c15),
	}
	r.scratch = resim.NewScratch()
	r.pick = rng.NewLogTable(n + 1)

	// Proposal set: slot 0 holds the current state, slots 1..N the new
	// candidates. All slots — trees, weights, statistics and age buffers —
	// are preallocated once (paper §5.1.3) and rewritten in place each
	// round.
	r.set = make([]*gtree.Tree, n+1)
	for i := range r.set {
		r.set[i] = init.Clone()
	}
	r.logw = make([]float64, n+1)
	r.stats = make([]float64, n+1)
	r.errs = make([]error, n)
	nAges := init.NInterior()
	r.ages = make([][]float64, n+1)
	agesStore := make([]float64, (n+1)*nAges)
	for i := range r.ages {
		r.ages[i] = agesStore[i*nAges : i*nAges : (i+1)*nAges]
	}

	if g.eval.Reference() {
		r.logw[r.cur] = g.eval.LogLikelihood(r.set[r.cur])
	} else {
		r.cache = g.eval.NewDeltaCache()
		r.logw[r.cur] = g.eval.Rebase(r.cache, r.set[r.cur])
		if !g.PerCandidate {
			// Wave evaluation: the whole candidate set's likelihoods as one
			// fused (proposal × pattern-block) grid against a per-round
			// outer-partial lift of the shared root path. Bit-identical to
			// the per-candidate dispatch.
			r.wave = g.eval.NewWave(r.cache)
			r.waveTrees = make([]*gtree.Tree, n+1)
		}
	}
	r.ages[r.cur] = r.set[r.cur].CoalescentAgesInto(r.ages[r.cur])
	r.stats[r.cur] = sumKKTFromAges(init.NTips(), r.ages[r.cur])

	// Recorded draws copy their age vector out of the slot buffers into
	// the recorder's flat arena, carved one record at a time (or stream
	// to the trace sidecar when the run spills).
	rec, err := newRecorder(init.NTips(), cfg)
	if err != nil {
		return nil, err
	}
	r.rec = rec
	r.out = r.rec.set
	r.res = &Result{Samples: r.out}

	// Proposal kernel: one device thread per candidate (§5.2.1). The
	// thread owning the current state stays idle, exactly as the paper
	// notes for the generator's thread. The closure is built once; cur,
	// slots and the scratch's analysis are rebound per round before the
	// launch. On the wave path the kernel only resimulates and summarizes
	// — the likelihoods of the whole set are computed afterwards as one
	// fused grid.
	r.slots = make([]int, 0, n)
	r.kernel = func(tid int) {
		i := r.slots[tid]
		p := r.set[i]
		p.CopyFrom(r.set[r.cur])
		if err := r.scratch.Sample(p, r.streams.Stream(tid)); err != nil {
			// A numerically impossible region: the candidate gets zero
			// weight and can never be sampled; the round proceeds.
			r.errs[tid] = err
			r.logw[i] = logspace.NegInf
			return
		}
		r.errs[tid] = nil
		switch {
		case r.wave != nil:
			// Evaluated by the wave grid after the launch completes.
		case r.cache != nil:
			// Read-only delta evaluation: with N candidates a round and
			// at most one winner, evaluating without staging and paying
			// one incremental RebaseTo for the chosen slot is cheaper
			// than staging all N (the single-proposal engine chains make
			// the opposite trade through StageDelta).
			r.logw[i] = g.eval.LogLikelihoodDelta(r.cache, p)
		default:
			r.logw[i] = g.eval.LogLikelihood(p)
		}
		r.ages[i] = p.CoalescentAgesInto(r.ages[i])
		r.stats[i] = sumKKTFromAges(r.out.NTips, r.ages[i])
	}
	return r, nil
}

// Step implements SnapshotStepper: one full proposal round.
//
//mpcgs:hotpath
func (r *gmhRun) Step() error {
	// Auxiliary variable φ: the shared resimulation target, making
	// every member of the set able to propose the rest (§4.3).
	phi := resim.PickTarget(r.set[r.cur], r.host)
	r.slots = r.slots[:0]
	for i := 0; i <= r.n; i++ {
		if i != r.cur {
			r.slots = append(r.slots, i)
		}
	}
	if err := r.scratch.Analyze(r.set[r.cur], phi, r.theta); err != nil {
		// No draw exists for this region: every candidate fails with the
		// analysis error, and no proposal stream is consumed.
		for tid, i := range r.slots {
			r.errs[tid] = err
			r.logw[i] = logspace.NegInf
		}
	} else {
		r.g.dev.Launch(r.n, r.kernel)
	}
	r.res.Proposals += r.n
	for _, err := range r.errs {
		if err != nil {
			r.res.FailedProposals++
		}
	}
	if r.wave != nil {
		// Wave evaluation: lift the shared root path once for this round's
		// φ, then one fused (proposal × pattern-block) grid over every
		// candidate that resimulated successfully. Failed candidates and
		// the current state keep their logw (NegInf and the cached value).
		r.wave.BindRound(phi)
		for tid, i := range r.slots {
			if r.errs[tid] != nil {
				r.waveTrees[i] = nil
			} else {
				r.waveTrees[i] = r.set[i]
			}
		}
		r.waveTrees[r.cur] = nil
		r.wave.Eval(r.waveTrees, r.logw)
	}

	// Sampling stage: draw from the index chain's stationary
	// distribution, w_i ∝ P(D|G̃_i) (Eq. 31), N times as Calderhead does.
	last := r.cur
	r.pick.Reset(r.logw)
	for k := 0; k < r.n && !r.rec.full(); k++ {
		idx := r.pick.Draw(r.host)
		if idx != last {
			r.res.Accepted++
		}
		last = idx
		if err := r.rec.record(r.stats[idx], r.ages[idx], r.logw[idx]); err != nil {
			return err
		}
	}
	if last != r.cur {
		r.cur = last
		if r.cache != nil {
			// Move the conditional-likelihood cache onto the new
			// current state incrementally: only the accepted
			// neighbourhood's rows are rewritten.
			r.g.eval.RebaseTo(r.cache, r.set[r.cur])
		}
	}
	return nil
}

// Done implements SnapshotStepper.
func (r *gmhRun) Done() bool { return r.rec.full() }

// Finish implements SnapshotStepper.
func (r *gmhRun) Finish() (*Result, error) {
	if err := r.rec.finalize(); err != nil {
		return nil, err
	}
	r.rec.applyOutcome(r.res)
	r.res.Final = r.set[r.cur].Clone()
	return r.res, nil
}

// Snapshot implements SnapshotStepper. Only the current slot's tree is
// carried: every other slot — tree, weight, statistic, ages — is rewritten
// by the proposal kernel before the next round reads it. The slot index
// itself must survive, because it decides how streams map onto slots and
// where the current state sits in the index-chain walk.
func (r *gmhRun) Snapshot() (*StepSnapshot, error) {
	t, ref, err := r.rec.snapshot()
	if err != nil {
		return nil, err
	}
	return &StepSnapshot{
		Sampler:  "gmh",
		Step:     r.rec.len(),
		Cur:      r.cur,
		Host:     r.host.State(),
		Streams:  r.streams.State(),
		Chains:   []ChainSnapshot{{Tree: r.set[r.cur].Clone(), Beta: 1}},
		Trace:    t,
		TraceRef: ref,
		Counters: countersOf(r.res),
	}, nil
}

// Restore implements SnapshotStepper.
func (r *gmhRun) Restore(s *StepSnapshot) error {
	if s.Sampler != "gmh" {
		return fmt.Errorf("core: %q snapshot restored into a gmh run", s.Sampler)
	}
	if len(s.Chains) != 1 || s.Chains[0].Tree == nil {
		return fmt.Errorf("core: gmh snapshot has no current-state tree")
	}
	if s.Cur < 0 || s.Cur > r.n {
		return fmt.Errorf("core: gmh snapshot slot index %d out of range [0, %d]", s.Cur, r.n)
	}
	if s.Step > r.total {
		return fmt.Errorf("core: gmh snapshot at step %d, run records at most %d", s.Step, r.total)
	}
	tree := s.Chains[0].Tree
	if tree.NTips() != r.set[0].NTips() {
		return fmt.Errorf("core: gmh snapshot tree has %d tips, run has %d", tree.NTips(), r.set[0].NTips())
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("core: gmh snapshot tree invalid: %w", err)
	}
	if err := r.host.SetState(s.Host); err != nil {
		return err
	}
	if err := r.streams.SetState(s.Streams); err != nil {
		return fmt.Errorf("core: gmh snapshot has %d proposal streams, run is configured for %d: %w",
			len(s.Streams), r.n, err)
	}
	r.cur = s.Cur
	// Every slot gets the tree so the arena stays structurally valid; only
	// the current slot's derived values matter — the rest are overwritten
	// by the next round's kernel.
	for i := range r.set {
		r.set[i].CopyFrom(tree)
	}
	if r.cache != nil {
		r.logw[r.cur] = r.g.eval.Rebase(r.cache, r.set[r.cur])
	} else {
		r.logw[r.cur] = r.g.eval.LogLikelihood(r.set[r.cur])
	}
	r.ages[r.cur] = r.set[r.cur].CoalescentAgesInto(r.ages[r.cur])
	r.stats[r.cur] = sumKKTFromAges(r.out.NTips, r.ages[r.cur])
	if err := r.rec.restore(s.Trace, s.TraceRef, s.Step); err != nil {
		return err
	}
	s.Counters.applyTo(r.res)
	return nil
}
