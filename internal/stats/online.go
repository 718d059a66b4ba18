package stats

import "math"

// onlineMaxMeans caps the stored batch means. When the cap is hit,
// adjacent pairs merge and the batch size doubles, so memory stays
// fixed while every observed value keeps contributing.
const onlineMaxMeans = 256

// OnlineDiag accumulates convergence diagnostics over a draw stream in
// bounded memory: the running mean and variance, the range, and up to
// onlineMaxMeans doubling batch means. ESS reads all of them; a split
// Gelman-Rubin statistic compares the first and second halves of the
// batch means. It is the package's one ESS estimator:
// EffectiveSampleSize feeds a whole trace through it.
//
// Every update is a pure, order-deterministic function of the stream,
// so two replays of the same draws — including a kill/resume replay
// from the trace sidecar — reach bit-identical states. That is what
// lets the auto-stop rule live inside the sampler without breaking the
// bit-identical resume contract.
type OnlineDiag struct {
	n        int     // values observed
	mean, m2 float64 // running mean and sum of squared deviations (Welford)
	min, max float64

	means []float64
	bsize int // values per completed batch
	bsum  float64
	bn    int // values in the current partial batch
}

// NewOnlineDiag returns an empty accumulator.
func NewOnlineDiag() *OnlineDiag {
	return &OnlineDiag{bsize: 1, means: make([]float64, 0, onlineMaxMeans)}
}

// Add observes one value.
//
//mpcgs:hotpath
func (d *OnlineDiag) Add(x float64) {
	d.n++
	delta := x - d.mean
	d.mean += delta / float64(d.n)
	d.m2 += delta * (x - d.mean)
	if d.n == 1 || x < d.min {
		d.min = x
	}
	if d.n == 1 || x > d.max {
		d.max = x
	}

	d.bsum += x
	d.bn++
	if d.bn == d.bsize {
		d.means = append(d.means, d.bsum/float64(d.bsize))
		d.bsum = 0
		d.bn = 0
		if len(d.means) == onlineMaxMeans {
			half := d.means[:0]
			for i := 0; i < onlineMaxMeans; i += 2 {
				half = append(half, (d.means[i]+d.means[i+1])/2)
			}
			d.means = half
			d.bsize *= 2
		}
	}
}

// N returns the number of values observed.
func (d *OnlineDiag) N() int { return d.n }

// ESS estimates the effective number of independent draws in the
// stream, n/τ. The integrated autocorrelation time τ comes from the
// batch means: a batch of b draws has variance s_b² ≈ τ·s²/b, and the
// batch-mean series its own time τ_b, so τ = τ_b·b·s_b²/s², with s² the
// per-draw variance. While batches hold one draw the batch means are
// the draws and τ is τ_b itself. A constant stream of two or more
// draws has ESS 0; fewer than 10 draws count as independent.
func (d *OnlineDiag) ESS() float64 {
	n := float64(d.n)
	if d.n >= 2 && d.min == d.max {
		return 0
	}
	if d.n < 10 {
		return n
	}
	tau, sb2 := ipsTau(d.means)
	if d.bsize > 1 {
		tau *= float64(d.bsize) * sb2 / (d.m2 / (n - 1))
	}
	ess := n / tau
	if ess > n {
		return n
	}
	return ess
}

// ipsTau returns the integrated autocorrelation time of xs, 1 + 2Σρ_k
// summed over lags until the first non-positive ρ_k (Geyer's initial
// positive sequence), together with the sample variance of xs.
func ipsTau(xs []float64) (tau, variance float64) {
	n := len(xs)
	m := Mean(xs)
	var den float64
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	tau = 1
	for lag := 1; lag < n/2; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		rho := num / den
		if math.IsNaN(rho) || rho <= 0 {
			break
		}
		tau += 2 * rho
	}
	return tau, den / float64(n-1)
}

// RHat returns the split Gelman-Rubin statistic over the batch means:
// the first half of the run is treated as one chain and the second
// half as another. NaN until at least four completed batches exist.
func (d *OnlineDiag) RHat() float64 {
	m := len(d.means)
	if m < 4 {
		return math.NaN()
	}
	// An odd count would make the halves ragged; drop the oldest mean.
	eq := d.means[m%2:]
	h := len(eq) / 2
	return GelmanRubin([][]float64{eq[:h], eq[h:]})
}
