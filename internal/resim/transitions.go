package resim

import (
	"math"

	"mpcgs/internal/rng"
)

// transitions holds the rates of the killed pure-death process governing
// the active lineages within one feasible interval: with a active and
// k_in inactive lineages,
//
//	merge rate  μ_a = a(a-1)/θ        (an active pair coalesces)
//	kill rate   κ_a = 2·a·k_in/θ      (active-inactive cross term of the
//	                                   conditional prior, conditioned against)
//	total       λ_a = μ_a + κ_a = a(a-1+2·k_in)/θ
//
// λ_3 > λ_2 > λ_1 ≥ 0 always (the gaps are (4+2k_in)/θ and (2+2k_in)/θ),
// so the partial-fraction forms below never hit equal rates.
type transitions struct {
	mu     [maxActive + 1]float64
	lambda [maxActive + 1]float64
}

func newTransitions(kin int, theta float64) transitions {
	var tr transitions
	for a := 1; a <= maxActive; a++ {
		tr.mu[a] = float64(a*(a-1)) / theta
		tr.lambda[a] = float64(a*(a-1+2*kin)) / theta
	}
	return tr
}

// transTable holds S_{a,b}(L) of one interval, indexed [a][b].
type transTable [maxActive + 1][maxActive + 1]float64

// table returns S_{a,b}(L) for every a, b ∈ [1, 3], zero outside
// b ∈ [max(1, a-2), a]. Every entry is a combination of the three
// survival factors e^{-λ_a L}, each evaluated once; at L = 0 the factors
// are 1 and the table is the identity.
func (tr *transitions) table(L float64) transTable {
	var t transTable
	var e [maxActive + 1]float64
	for a := 1; a <= maxActive; a++ {
		e[a] = math.Exp(-tr.lambda[a] * L)
	}
	for a := 1; a <= maxActive; a++ {
		// No change: e^{-λ_a L}.
		t[a][a] = e[a]
		if a >= 2 {
			// ∫ e^{-λ_a s} μ_a e^{-λ_{a-1}(L-s)} ds
			la, lb := tr.lambda[a], tr.lambda[a-1]
			t[a][a-1] = tr.mu[a] * (e[a-1] - e[a]) / (la - lb)
		}
	}
	// 3 -> 1 by direct double integration (see derivation in the tests):
	//   μ3 μ2 / (λ2-λ1) · [ (e^{-λ1 L} - e^{-λ3 L})/(λ3-λ1)
	//                     - (e^{-λ2 L} - e^{-λ3 L})/(λ3-λ2) ]
	l1, l2, l3 := tr.lambda[1], tr.lambda[2], tr.lambda[3]
	v := (e[1]-e[3])/(l3-l1) - (e[2]-e[3])/(l3-l2)
	t[3][1] = tr.mu[3] * tr.mu[2] * v / (l2 - l1)
	return t
}

// timeNudge keeps sampled event ages strictly inside their interval so
// parent ages always exceed child ages even under floating-point
// coincidences.
const timeNudge = 1e-12

func clampInside(s, L float64) float64 {
	lo := L * timeNudge
	hi := L * (1 - timeNudge)
	if s < lo {
		return lo
	}
	if s > hi {
		return hi
	}
	return s
}

// placeOne samples the offset of a single merge event within an interval
// of length L entered with a active lineages, conditioned on exactly one
// merge and survival: the density is proportional to
// e^{-λ_a s}·e^{-λ_{a-1}(L-s)} ∝ e^{-(λ_a-λ_{a-1})s}, a truncated
// exponential inverted directly.
func (tr *transitions) placeOne(a int, L float64, src rng.Source) float64 {
	rate := tr.lambda[a] - tr.lambda[a-1]
	return clampInside(rng.TruncExp(src, rate, L), L)
}

// placeTwo samples the offsets s1 < s2 of both merge events within an
// interval of length L entered with three active lineages, conditioned on
// both merges and survival. The joint density is proportional to
// e^{-α s1} e^{-β s2} on the simplex 0 ≤ s1 ≤ s2 ≤ L with α = λ3-λ2,
// β = λ2-λ1. s1 is drawn from its exact marginal by bisection on the
// closed-form CDF, then s2 | s1 is a truncated exponential.
func (tr *transitions) placeTwo(L float64, src rng.Source) (s1, s2 float64) {
	alpha := tr.lambda[3] - tr.lambda[2]
	beta := tr.lambda[2] - tr.lambda[1]
	// Unnormalized CDF of s1: F(x) = ∫_0^x e^{-α u}(e^{-β u} - e^{-β L}) du
	//   = em1(α+β, x) - e^{-β L}·em1(α, x),  with em1(r,x) = (1-e^{-rx})/r.
	ebl := math.Exp(-beta * L)
	cdf := func(x float64) float64 {
		return em1(alpha+beta, x) - ebl*em1(alpha, x)
	}
	total := cdf(L)
	u := src.Float64() * total
	lo, hi := 0.0, L
	for iter := 0; iter < 200 && hi-lo > L*1e-14; iter++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	s1 = clampInside((lo+hi)/2, L)
	s2 = s1 + rng.TruncExp(src, beta, L-s1)
	s2 = s1 + clampInside(s2-s1, L-s1)
	return s1, s2
}

// em1 returns (1 - e^{-r x})/r, continuous through r -> 0 where it tends
// to x.
func em1(r, x float64) float64 {
	if math.Abs(r*x) < 1e-12 {
		return x * (1 - r*x/2)
	}
	return -math.Expm1(-r*x) / r
}
