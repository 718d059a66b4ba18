package core

import (
	"fmt"
	"math"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// Bayesian samples the joint posterior P(G, θ | D) ∝ P(D|G)·P(G|θ)·π(θ),
// the second estimation mode of LAMARC 2.0 (Kuhner 2006, the paper's ref
// [17]). Two move types alternate:
//
//   - Genealogy moves: the neighbourhood resimulation kernel at the
//     current θ, accepted by the data-likelihood ratio (the conditional
//     prior proposal cancels P(G|θ), Eq. 28). They are the steps of an MH
//     run on the shared chain engine, so each move delta-evaluates only
//     the resimulated neighbourhood against the chain's
//     conditional-likelihood cache — exactly the long-chain regime where
//     incremental evaluation pays.
//   - θ moves: a multiplicative log-normal random walk. Under the
//     log-uniform prior π(θ) ∝ 1/θ on [ThetaMin, ThetaMax] (LAMARC's
//     default), the Hastings factor θ'/θ cancels the prior ratio exactly,
//     leaving acceptance min(1, P(G|θ')/P(G|θ)); the data likelihood does
//     not depend on θ (paper Eq. 23) and drops out.
//
// The output is a posterior sample of θ rather than a point estimate: no
// EM loop, no driving value to iterate.
type Bayesian struct {
	eval *felsen.Evaluator
	// ThetaMin and ThetaMax bound the log-uniform prior. Zero values
	// select [1e-4, 1e2].
	ThetaMin, ThetaMax float64
	// ThetaStep is the log-normal random-walk scale. Zero selects 0.1.
	ThetaStep float64
	// ThetaEvery attempts a θ move after every k genealogy moves. Zero
	// selects 1.
	ThetaEvery int
}

// NewBayesian builds the joint (G, θ) sampler. The joint chain is
// sequential (one state, two move types), so it takes no device.
func NewBayesian(eval *felsen.Evaluator) *Bayesian {
	return &Bayesian{eval: eval}
}

// BayesResult is the outcome of a Bayesian run.
type BayesResult struct {
	// Thetas holds the posterior θ draws (one per recorded step,
	// including burn-in; the first Samples.Burnin entries are burn-in).
	Thetas []float64
	// Samples holds the genealogy draws in reduced form.
	Samples *SampleSet
	// TreeAccepted/TreeMoves and ThetaAccepted/ThetaMoves count the two
	// move types.
	TreeAccepted, TreeMoves   int
	ThetaAccepted, ThetaMoves int
}

// PosteriorMeanTheta returns the post-burn-in mean of the θ draws.
func (r *BayesResult) PosteriorMeanTheta() float64 {
	xs := r.Thetas[r.Samples.Burnin:]
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Run samples the joint posterior. cfg.Theta is the initial θ (it must
// lie inside the prior support). The run ends when the genealogy chain's
// recorder is full, which honours cfg.ESSTarget/RHatTarget.
func (b *Bayesian) Run(init *gtree.Tree, cfg ChainConfig) (*BayesResult, error) {
	tmin, tmax := b.ThetaMin, b.ThetaMax
	if tmin <= 0 {
		tmin = 1e-4
	}
	if tmax <= 0 {
		tmax = 1e2
	}
	if tmin >= tmax {
		return nil, fmt.Errorf("core: bad theta prior range [%v, %v]", tmin, tmax)
	}
	if cfg.Theta < tmin || cfg.Theta > tmax {
		return nil, fmt.Errorf("core: initial theta %v outside prior support [%v, %v]", cfg.Theta, tmin, tmax)
	}
	step := b.ThetaStep
	if step <= 0 {
		step = 0.1
	}
	every := b.ThetaEvery
	if every <= 0 {
		every = 1
	}

	run, err := startMH(b.eval, init, cfg, 6)
	if err != nil {
		return nil, err
	}
	nTips := init.NTips()
	thetas := make([]float64, 0, cfg.Burnin+cfg.Samples)
	var thetaAccepted, thetaMoves int
	for !run.Done() {
		// Genealogy move at the current θ, recorded. Recording before the
		// θ move below is equivalent to recording after it: the θ move
		// leaves the chain state alone and the recorder draws nothing.
		if err := run.Step(); err != nil {
			return nil, err
		}
		// θ move, on the genealogy chain's stream.
		if len(thetas)%every == 0 {
			thetaMoves++
			next := rng.LogNormalStep(run.src, run.theta, step)
			if next >= tmin && next <= tmax {
				logr := coalprior.LogPriorStat(nTips, run.st.stat, next) -
					coalprior.LogPriorStat(nTips, run.st.stat, run.theta)
				if logr >= 0 || run.src.Float64() < math.Exp(logr) {
					run.theta = next
					thetaAccepted++
				}
			}
		}
		thetas = append(thetas, run.theta)
	}
	res, err := run.Finish()
	if err != nil {
		return nil, err
	}
	return &BayesResult{
		Thetas:        thetas,
		Samples:       res.Samples,
		TreeAccepted:  res.Accepted,
		TreeMoves:     res.Proposals,
		ThetaAccepted: thetaAccepted,
		ThetaMoves:    thetaMoves,
	}, nil
}
