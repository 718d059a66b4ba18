package stats

import (
	"math"
)

// Convergence diagnostics for the burn-in problem of paper §2.3: "one
// such method is to use a sample statistic ... to determine if the chain
// has stabilized", and "a possible counter to the risk of premature
// termination is to compare the output of multiple chains". GelmanRubin
// implements the multi-chain comparison; Geweke implements the
// within-chain stabilization check; DetectBurnin applies Geweke over
// growing prefixes to propose a burn-in cutoff.

// GelmanRubin returns the potential scale reduction factor R-hat over
// parallel chain traces of equal length: the ratio of pooled-variance to
// within-chain variance estimates of the target variance. Values near 1
// indicate the chains have mixed into the same distribution; values well
// above 1 indicate insufficient burn-in. NaN for fewer than 2 chains or
// chains shorter than 2 draws.
func GelmanRubin(chains [][]float64) float64 {
	m := len(chains)
	if m < 2 {
		return math.NaN()
	}
	n := len(chains[0])
	if n < 2 {
		return math.NaN()
	}
	for _, c := range chains {
		if len(c) != n {
			return math.NaN()
		}
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	for i, c := range chains {
		means[i] = Mean(c)
		vars[i] = Variance(c)
	}
	w := Mean(vars)      // W: mean within-chain variance
	b := Variance(means) // B/n: between-chain variance of the chain means
	if w == 0 {
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	nf := float64(n)
	varPlus := (nf-1)/nf*w + b // pooled posterior variance estimate
	return math.Sqrt(varPlus / w)
}

// Geweke returns the z-score comparing the mean of the first firstFrac of
// the trace against the last lastFrac, using spectral-density-free
// standard errors from the effective sample sizes. |z| below ~2 is
// consistent with stationarity. A constant trace cannot be tested and
// gets NaN. A constant segment has its value as mean and standard error
// 0, so two constant segments of different values give ±Inf.
func Geweke(trace []float64, firstFrac, lastFrac float64) float64 {
	n := len(trace)
	if n < 20 || firstFrac <= 0 || lastFrac <= 0 || firstFrac+lastFrac > 1 || Constant(trace) {
		return math.NaN()
	}
	a := trace[:int(firstFrac*float64(n))]
	b := trace[n-int(lastFrac*float64(n)):]
	if len(a) < 5 || len(b) < 5 {
		return math.NaN()
	}
	ma, seA := meanSE(a)
	mb, seB := meanSE(b)
	den := math.Sqrt(seA*seA + seB*seB)
	if den == 0 && ma == mb {
		return 0
	}
	return (ma - mb) / den
}

// meanSE returns a segment's mean and the standard error of that mean
// from its effective sample size: exactly its value and 0 for a
// constant segment, whose rounded mean and variance would be residue.
func meanSE(xs []float64) (mean, se float64) {
	if Constant(xs) {
		return xs[0], 0
	}
	return Mean(xs), StdDev(xs) / math.Sqrt(EffectiveSampleSize(xs))
}

// DetectBurnin proposes a burn-in cutoff for the trace: the smallest
// prefix length (on a geometric grid) whose removal leaves a trace that
// passes the Geweke check at several window splits — a single split is
// easily fooled by a smooth residual trend. It returns len(trace)/2 when
// no prefix passes, matching the conservative practice of discarding half
// the run.
func DetectBurnin(trace []float64) int {
	n := len(trace)
	if n < 40 {
		return n / 2
	}
	splits := [][2]float64{{0.1, 0.5}, {0.2, 0.5}, {0.3, 0.4}}
	for cut := n / 64; cut < n/2; cut = cut*2 + 1 {
		ok := true
		for _, s := range splits {
			z := Geweke(trace[cut:], s[0], s[1])
			if math.IsNaN(z) || math.Abs(z) >= 2 {
				ok = false
				break
			}
		}
		if ok {
			return cut
		}
	}
	return n / 2
}
