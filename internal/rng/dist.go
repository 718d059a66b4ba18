package rng

import (
	"math"

	"mpcgs/internal/logspace"
)

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Rejection sampling over 53-bit floats is unbiased enough for n far
	// below 2^53, which holds for every use in the sampler (n is a node or
	// proposal count).
	return int(src.Float64() * float64(n))
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func Exp(src Source, rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := src.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log1p(-u) / rate
}

// TruncExp returns a variate from the exponential distribution with the
// given rate truncated to [0, bound], by CDF inversion:
//
//	F(x) = (1 - exp(-rate*x)) / (1 - exp(-rate*bound)).
//
// A rate of zero (or a rate*bound small enough that the distribution is
// numerically uniform) degrades gracefully to a uniform draw on [0, bound].
// Negative rates are allowed and produce the mirrored density, which the
// interval-placement sampler needs when the downhill direction reverses.
func TruncExp(src Source, rate, bound float64) float64 {
	if bound < 0 {
		panic("rng: TruncExp with negative bound")
	}
	if bound == 0 {
		return 0
	}
	if rate < 0 {
		// Density proportional to exp(-rate*x) with rate < 0 rises toward
		// bound; sample the mirrored positive-rate distribution.
		return bound - TruncExp(src, -rate, bound)
	}
	rb := rate * bound
	if rb < 1e-12 {
		return src.Float64() * bound
	}
	u := src.Float64()
	// Invert F: x = -log(1 - u*(1 - e^{-rb})) / rate.
	x := -math.Log1p(-u*(-math.Expm1(-rb))) / rate
	if x > bound {
		x = bound
	}
	return x
}

// Categorical samples an index with probability proportional to the
// non-negative weights. It panics if all weights are zero or any weight is
// negative.
func Categorical(src Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with all-zero weights")
	}
	x := src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	// Floating-point slack: return the last index with non-zero weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LogCategorical samples an index with probability proportional to
// exp(logw[i]), the sampling step of Calderhead's method over the proposal
// stationary distribution (paper §4.3): draw x uniformly on the summed
// weight and walk the prefix sums. Weights of logspace.NegInf are legal
// (zero probability); it panics if every weight is NegInf.
func LogCategorical(src Source, logw []float64) int {
	m := logspace.Max(logw)
	if logspace.IsZero(m) {
		panic("rng: LogCategorical with all-zero weights")
	}
	var total float64
	for _, w := range logw {
		total += math.Exp(w - m)
	}
	x := src.Float64() * total
	acc := 0.0
	for i, w := range logw {
		acc += math.Exp(w - m)
		if x < acc {
			return i
		}
	}
	for i := len(logw) - 1; i >= 0; i-- {
		if !logspace.IsZero(logw[i]) {
			return i
		}
	}
	return len(logw) - 1
}

// LogTable is LogCategorical with the normalisation hoisted out of
// repeated draws over the same log-weights: Reset computes the maximum and
// every exp(logw[i]-max) once, and each Draw then consumes one Float64
// from src and walks the same prefix sums, so it returns exactly the index
// LogCategorical would for the same weights and stream. Calderhead's
// sampling stage draws N indices from one proposal set's weights (paper
// §4.3): N+1 exponentials a round this way, against up to 2·N·(N+1)
// through LogCategorical.
type LogTable struct {
	exp      []float64
	total    float64
	fallback int // last index with non-zero weight: the slack fallback
}

// NewLogTable returns a LogTable whose buffer holds n weights without
// growing.
func NewLogTable(n int) *LogTable { return &LogTable{exp: make([]float64, 0, n)} }

// Reset loads logw. It panics, as LogCategorical does, if every weight is
// logspace.NegInf.
func (c *LogTable) Reset(logw []float64) {
	m := logspace.Max(logw)
	if logspace.IsZero(m) {
		panic("rng: LogCategorical with all-zero weights")
	}
	c.exp = c.exp[:0]
	c.total = 0
	for _, w := range logw {
		e := math.Exp(w - m)
		c.exp = append(c.exp, e)
		c.total += e
	}
	c.fallback = len(logw) - 1
	for i := len(logw) - 1; i >= 0; i-- {
		if !logspace.IsZero(logw[i]) {
			c.fallback = i
			break
		}
	}
}

// Draw samples an index with probability proportional to the loaded
// weights.
func (c *LogTable) Draw(src Source) int {
	x := src.Float64() * c.total
	acc := 0.0
	for i, e := range c.exp {
		acc += e
		if x < acc {
			return i
		}
	}
	return c.fallback
}

// Normal returns a standard normal variate by the Box-Muller transform.
func Normal(src Source) float64 {
	// Guard u1 > 0 so the log is finite.
	u1 := 1 - src.Float64()
	u2 := src.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormalStep multiplies x by exp(sigma*N(0,1)), the multiplicative
// random walk used for positive-parameter moves in the Bayesian sampler.
func LogNormalStep(src Source, x, sigma float64) float64 {
	return x * math.Exp(sigma*Normal(src))
}

// UniformPair returns two distinct uniform indices i < j from [0, n).
// It panics if n < 2. It is the uniform lineage-pair choice made at each
// coalescent event.
func UniformPair(src Source, n int) (int, int) {
	if n < 2 {
		panic("rng: UniformPair with n < 2")
	}
	i := Intn(src, n)
	j := Intn(src, n-1)
	if j >= i {
		j++
	}
	if i > j {
		i, j = j, i
	}
	return i, j
}
