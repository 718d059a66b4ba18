package coalprior

import (
	"fmt"
	"math"
)

// Growth support implements the paper's §7 extension: estimating a second
// population parameter. Under exponential growth the effective population
// size looking backward in time is N(t) = N_0·e^{-g·t}, so the pairwise
// coalescence rate at time t is (2/θ)·e^{g·t} and with k lineages the
// total rate is k(k-1)·e^{g·t}/θ. Positive g means the population has
// been growing forward in time (it shrinks into the past, accelerating
// coalescence); g = 0 recovers the constant-size model of Eq. 17-18.

// growthIntegral returns ∫_a^b e^{g u} du, continuous through g -> 0
// where it tends to b-a. The expm1 form e^{ga}·(e^{g(b-a)}-1)/g avoids
// the catastrophic cancellation of the naive difference of exponentials
// at small g.
func growthIntegral(a, b, g float64) float64 {
	x := g * (b - a)
	if g == 0 || x == 0 {
		return b - a
	}
	if math.Abs(x) < 1e-10 {
		// Second-order series keeps full precision where expm1(x)/g
		// itself would be fine but the multiply by e^{ga} dominates.
		return math.Exp(g*a) * (b - a) * (1 + x/2)
	}
	return math.Exp(g*a) * math.Expm1(x) / g
}

// GrowthStats returns the statistics through which log P(G|θ,g) depends
// on a genealogy's sorted coalescent event ages: the integral
// Σ_intervals k(k-1)·∫ e^{g u} du (S = Σ k(k-1)t at g = 0) and the sum of
// the event ages.
func GrowthStats(nTips int, ages []float64, g float64) (integral, sumAges float64) {
	if nTips < 2 {
		panic(fmt.Sprintf("coalprior: %d tips", nTips))
	}
	if len(ages) != nTips-1 {
		panic(fmt.Sprintf("coalprior: %d event ages for %d tips, want %d", len(ages), nTips, nTips-1))
	}
	prev := 0.0
	k := nTips
	for _, t := range ages {
		if t < prev {
			panic(fmt.Sprintf("coalprior: event ages not sorted: %v after %v", t, prev))
		}
		integral += float64(k*(k-1)) * growthIntegral(prev, t, g)
		sumAges += t
		prev = t
		k--
	}
	return integral, sumAges
}

// LogPriorGrowth returns log P(G|θ,g) for a genealogy described by its
// sorted coalescent event ages (most recent first) over nTips
// contemporaneous tips:
//
//	log P = Σ_events [log(2/θ) + g·t_event]
//	      - Σ_intervals k(k-1)/θ · ∫ e^{g u} du
//
// With g = 0 this equals LogPriorStat over the same intervals.
func LogPriorGrowth(nTips int, ages []float64, theta, g float64) float64 {
	if theta <= 0 {
		panic(fmt.Sprintf("coalprior: non-positive theta %v", theta))
	}
	integral, sumAges := GrowthStats(nTips, ages, g)
	return float64(nTips-1)*math.Log(2/theta) + g*sumAges - integral/theta
}

// LogPriorGrowthRatio returns log[P(G|θ,g)/P(G|θ0,g0)], the per-sample
// term of the two-parameter relative likelihood.
func LogPriorGrowthRatio(nTips int, ages []float64, theta, g, theta0, g0 float64) float64 {
	return LogPriorGrowth(nTips, ages, theta, g) - LogPriorGrowth(nTips, ages, theta0, g0)
}
