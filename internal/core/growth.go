package core

import (
	"fmt"
	"math"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
)

// Growth estimation implements the extension the paper's §7 calls for:
// estimating a second population parameter from the same genealogy
// samples. The chain is driven at (θ0, g = 0) — the constant-size
// proposal kernel — and the two-parameter relative likelihood
//
//	L(θ, g) = mean_i P(G_i | θ, g) / P(G_i | θ0, 0)
//
// is evaluated over the stored per-sample coalescent ages by importance
// reweighting. At fixed g it has the form of the constant-size M-step's
// objective, so θ̂(g) comes from the same exact solve, and the profile
// over g is maximized by a one-dimensional search. Estimates are reliable
// for moderate growth; strongly growing populations would need a
// growth-aware proposal kernel ("a new proposal kernel to propose
// genealogies with the posterior probability of that parameter", §7),
// which remains future work here too.

// RelLogLikelihoodGrowth returns log L(θ, g) over the sample set by the
// posterior likelihood kernel structure of §5.2.3 (per-sample threads,
// max-normalization, additive reduction).
func RelLogLikelihoodGrowth(s *SampleSet, theta, g float64, dev *device.Device) float64 {
	if dev == nil {
		dev = device.Serial()
	}
	ages := s.PostBurninAges()
	if len(ages) == 0 {
		panic("core: RelLogLikelihoodGrowth with no post-burn-in samples")
	}
	terms := make([]float64, len(ages))
	dev.Launch(len(ages), func(i int) {
		terms[i] = coalprior.LogPriorGrowthRatio(s.NTips, ages[i], theta, g, s.Theta0, 0)
	})
	return dev.ReduceLogSum(terms) - math.Log(float64(len(terms)))
}

// GrowthEstimate is the result of the two-parameter maximization.
type GrowthEstimate struct {
	Theta  float64
	Growth float64
	// WeightESS is the Kish effective sample size (Σw)²/Σw² of the
	// importance weights w_i = P(G_i|θ̂,ĝ)/P(G_i|θ0,0) at the returned
	// maximum: near the number of post-burn-in draws when the pass's
	// driving value (θ0, 0) is close to the estimate, near 1 when a few
	// draws carry the whole reweighted likelihood and the estimate is
	// unreliable.
	WeightESS float64
}

// MaximizeThetaGrowth maximizes L(θ, g) over the sample set. Each
// sample's log-ratio is (n-1)·log θ0/θ + g·ΣT_i + S_i/θ0 - I_i(g)/θ
// (coalprior.GrowthStats), so at fixed g thetaSolver gives θ̂(g) and the
// profile log-likelihood, which maximizeProfile searches over g.
func MaximizeThetaGrowth(s *SampleSet, dev *device.Device) (*GrowthEstimate, error) {
	ages := s.PostBurninAges()
	m, err := newThetaSolver(s, len(ages), dev)
	if err != nil {
		return nil, err
	}
	s0, sumT := make([]float64, len(ages)), make([]float64, len(ages))
	m.dev.Launch(len(ages), func(i int) { s0[i], sumT[i] = coalprior.GrowthStats(s.NTips, ages[i], 0) })
	u := 1 / s.Theta0 // each solve starts where the last one ended
	var solveErr error
	profile := func(g float64) float64 {
		m.dev.Launch(len(ages), func(i int) {
			m.x[i], _ = coalprior.GrowthStats(s.NTips, ages[i], g)
			m.a[i] = g*sumT[i] + s0[i]/s.Theta0
		})
		next, f, err := m.solve(u)
		if solveErr = err; err != nil {
			return math.Inf(-1)
		}
		u = next
		return f
	}
	// g steps in units of the inverse mean tree height, the scale on
	// which growth changes a genealogy's prior.
	height := 0.0
	for _, a := range ages {
		height += a[len(a)-1]
	}
	g, err := maximizeProfile(profile, float64(len(ages))/height)
	if err == nil {
		profile(g) // θ̂ at the chosen g
		err = solveErr
	}
	if err != nil {
		return nil, err
	}
	return &GrowthEstimate{Theta: 1 / u, Growth: g, WeightESS: m.weightESS(u)}, nil
}

// maximizeProfile returns the best point found for a profile
// log-likelihood ℓ: it brackets a maximum by stepping outward from g = 0,
// first by h and then by steps growing by the golden ratio, and narrows
// the bracket by golden-section search until it is 1e-9 wide relative.
func maximizeProfile(l func(g float64) float64, h float64) (float64, error) {
	const gold = 0.6180339887498949 // 1/φ
	bestG, best := 0.0, math.Inf(-1)
	eval := func(g float64) float64 {
		v := l(g)
		if v > best {
			bestG, best = g, v
		}
		return v
	}
	a, b := 0.0, h
	fa, fb := eval(a), eval(b)
	if fb < fa {
		a, b, fb = b, a, fa
	}
	c := b + (b-a)/gold
	for fc := eval(c); fc > fb; fc = eval(c) {
		if math.Abs(c) > 1e6*math.Abs(h) {
			return 0, fmt.Errorf("core: profile likelihood still rising at g = %v", c)
		}
		a, b, fb = b, c, fc
		c = b + (b-a)/gold
	}
	lo, hi := math.Min(a, c), math.Max(a, c)
	x1, x2 := hi-gold*(hi-lo), lo+gold*(hi-lo)
	f1, f2 := eval(x1), eval(x2)
	for hi-lo > 1e-9*math.Max(math.Abs(h), math.Abs(bestG)) {
		if f1 >= f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - gold*(hi-lo)
			f1 = eval(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + gold*(hi-lo)
			f2 = eval(x2)
		}
	}
	return bestG, nil
}
