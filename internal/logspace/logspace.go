// Package logspace provides arithmetic on values stored as natural
// logarithms.
//
// The sampler computes products and sums of probabilities that underflow
// IEEE-754 doubles (site likelihoods over hundreds of base pairs, coalescent
// priors over dozens of intervals). Following §5.3 of the paper, every such
// value is stored as log(x) and combined with the identities
//
//	log(x*y) = log(x) + log(y)
//	log(x+y) = max + log(exp(a-max) + exp(b-max))
//
// where the max-shift keeps at least one exponent at exactly zero, so the
// sum can never vanish entirely (paper Eq. 32).
package logspace

import "math"

// NegInf is the log-space representation of zero probability.
var NegInf = math.Inf(-1)

// IsZero reports whether the log-space value represents probability zero.
func IsZero(x float64) bool { return math.IsInf(x, -1) }

// Add returns log(exp(a) + exp(b)) without intermediate underflow.
// Either argument may be NegInf (log of zero).
func Add(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if IsZero(a) {
		return NegInf
	}
	// a >= b, so exp(b-a) <= 1 and cannot overflow. Log1p keeps precision
	// when the smaller term is negligible.
	return a + math.Log1p(math.Exp(b-a))
}

// Sub returns log(exp(a) - exp(b)). It requires a >= b; when a == b the
// result is NegInf (log of zero). The ok result is false if b > a, in which
// case the difference is negative and has no log-space representation.
func Sub(a, b float64) (res float64, ok bool) {
	if b > a {
		return math.NaN(), false
	}
	if IsZero(a) || a == b {
		return NegInf, true
	}
	d := b - a // <= 0
	// log(exp(a) - exp(b)) = a + log(1 - exp(b-a))
	return a + math.Log1p(-math.Exp(d)), true
}

// Sum returns log(sum_i exp(xs[i])) using a single max-normalization pass,
// the same normalize-then-reduce scheme the posterior likelihood kernel
// uses (paper §5.2.3). Sum of an empty slice is NegInf.
func Sum(xs []float64) float64 {
	if len(xs) == 0 {
		return NegInf
	}
	m := Max(xs)
	if IsZero(m) {
		return NegInf
	}
	if math.IsInf(m, 1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// Max returns the largest element of xs, or NegInf for an empty slice.
func Max(xs []float64) float64 {
	m := NegInf
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns log(mean_i exp(xs[i])), the log-space arithmetic mean used
// by the relative likelihood estimator (paper Eq. 26).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return NegInf
	}
	return Sum(xs) - math.Log(float64(len(xs)))
}
