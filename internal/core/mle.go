package core

import (
	"fmt"
	"math"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
)

// RelLogLikelihood returns log L(θ), the log of the relative likelihood of
// paper Eq. 26: the mean over sampled genealogies of P(G|θ)/P(G|θ0).
// It is the posterior likelihood kernel of §5.2.3: one device thread per
// sample computes the per-genealogy log-ratio from its reduced interval
// representation, a max-reduction provides the §5.3 normalizing factor,
// and an additive reduction completes the mean.
func RelLogLikelihood(s *SampleSet, theta float64, dev *device.Device) float64 {
	if dev == nil {
		dev = device.Serial()
	}
	stats := s.PostBurninStats()
	if len(stats) == 0 {
		panic("core: RelLogLikelihood with no post-burn-in samples")
	}
	terms := make([]float64, len(stats))
	dev.Launch(len(stats), func(i int) {
		terms[i] = coalprior.LogPriorRatio(s.NTips, stats[i], theta, s.Theta0)
	})
	return dev.ReduceLogSum(terms) - math.Log(float64(len(terms)))
}

// Curve evaluates log L(θ) over a grid of theta values, for likelihood
// curve reports (paper Fig. 5).
func Curve(s *SampleSet, thetas []float64, dev *device.Device) []float64 {
	out := make([]float64, len(thetas))
	for i, th := range thetas {
		out[i] = RelLogLikelihood(s, th, dev)
	}
	return out
}

// MLEConfig has no fields: the M-step is an exact solve with nothing to
// tune. It remains only because the benchmark module calls MaximizeTheta
// with an MLEConfig{} argument.
type MLEConfig struct{}

// MaximizeTheta returns the θ maximizing the relative likelihood log L(θ)
// over the sample set: thetaSolver with a_i = S_i/θ0 and x_i = S_i. The
// paper's Algorithm 2, a finite-difference gradient ascent, reaches the
// same maximizer more slowly and less precisely; it is kept as a test
// oracle only.
func MaximizeTheta(s *SampleSet, _ MLEConfig, dev *device.Device) (float64, error) {
	stats := s.PostBurninStats()
	m, err := newThetaSolver(s, len(stats), dev)
	if err != nil {
		return 0, err
	}
	m.dev.Launch(len(stats), func(i int) { m.a[i], m.x[i] = stats[i]/s.Theta0, stats[i] })
	u, _, err := m.solve(1 / s.Theta0)
	if err != nil {
		return 0, err
	}
	return 1 / u, nil
}

// thetaSolver maximizes f(u) = (n-1)·log u + log Σ_i exp(a_i - u·x_i)
// over u = 1/θ > 0. Up to a constant this is log L(θ) for any model whose
// per-sample log-ratio is (n-1)·log θ0/θ + a_i - x_i/θ: the constant-size
// and the growth models differ only in a and x. In u the terms are
// affine, so one weighted pass gives
//
//	f′(u) = (n-1)/u - E_w[x],   f″(u) = -(n-1)/u² + Var_w[x],
//
// with w_i ∝ exp(a_i - u·x_i). A pass is per-sample launches and device
// reductions of fixed shape, so the result is bit-identical across worker
// counts.
type thetaSolver struct {
	dev              *device.Device
	n1               float64 // n-1, the number of coalescent events
	a, x, w, wd, wdd []float64
}

// newThetaSolver checks the sample set and returns a solver over samples
// draws; the caller fills a and x.
func newThetaSolver(s *SampleSet, samples int, dev *device.Device) (*thetaSolver, error) {
	if s.Theta0 <= 0 {
		return nil, fmt.Errorf("core: sample set has non-positive driving theta %v", s.Theta0)
	}
	if samples == 0 {
		return nil, fmt.Errorf("core: M-step with no post-burn-in samples")
	}
	if dev == nil {
		dev = device.Serial()
	}
	m := &thetaSolver{dev: dev, n1: float64(s.NTips - 1)}
	for _, buf := range []*[]float64{&m.a, &m.x, &m.w, &m.wd, &m.wdd} {
		*buf = make([]float64, samples)
	}
	return m, nil
}

// pass evaluates f, f′ and f″ at u. The moments are taken about
// c = (n-1)/u, which is E_w[x] at the maximum, so f′ = -E_w[x - c] comes
// out without cancellation near the root.
func (m *thetaSolver) pass(u float64) (f, d1, d2 float64) {
	m.dev.Launch(len(m.x), func(i int) { m.w[i] = m.a[i] - u*m.x[i] })
	top := m.dev.ReduceMax(m.w)
	c := m.n1 / u
	m.dev.Launch(len(m.x), func(i int) {
		w := math.Exp(m.w[i] - top)
		d := m.x[i] - c
		m.w[i], m.wd[i], m.wdd[i] = w, w*d, w*d*d
	})
	sw := m.dev.ReduceSum(m.w)
	ed := m.dev.ReduceSum(m.wd) / sw
	edd := m.dev.ReduceSum(m.wdd) / sw
	return m.n1*math.Log(u) + top + math.Log(sw), -ed, -m.n1/(u*u) + edd - ed*ed
}

// weightESS returns the Kish effective sample size (Σw)²/Σw² of the
// weights w_i ∝ exp(a_i - u·x_i), the importance weights of the samples
// at u up to a factor common to all of them, which cancels.
func (m *thetaSolver) weightESS(u float64) float64 {
	m.dev.Launch(len(m.x), func(i int) { m.w[i] = m.a[i] - u*m.x[i] })
	top := m.dev.ReduceMax(m.w)
	m.dev.Launch(len(m.x), func(i int) {
		m.w[i] = math.Exp(m.w[i] - top)
		m.wd[i] = m.w[i] * m.w[i]
	})
	sw := m.dev.ReduceSum(m.w)
	return sw * sw / m.dev.ReduceSum(m.wd)
}

// solveTol is the relative step at which the solve stops. Newton
// converges quadratically, so u is then accurate to about this much.
const solveTol = 1e-12

// solve finds the maximizer of f uphill from u by Newton's method on
// f′ = 0 and returns it with f there. A sign bracket on f′ safeguards it
// (f′ → +∞ as u → 0, and f′ < 0 for large u when every x_i > 0): when the
// Newton step leaves the bracket or f″ ≥ 0, the fixed point
// u ← (n-1)/E_w[x], a monotone minorize-maximize step, stands in, and
// failing that bisection, or doubling while no upper end is known.
func (m *thetaSolver) solve(u float64) (float64, float64, error) {
	lo, hi := 0.0, math.Inf(1)
	for iter := 0; iter < 200; iter++ {
		f, d1, d2 := m.pass(u)
		if math.IsNaN(f+d1+d2) || math.IsInf(f, 0) {
			return 0, 0, fmt.Errorf("core: M-step objective is not finite at theta = %v", 1/u)
		}
		step := -d1 / d2
		if d1 == 0 || d2 < 0 && math.Abs(step) <= solveTol*u {
			return u, f, nil
		}
		if d1 > 0 {
			lo = u
		} else {
			hi = u
		}
		next := u + step
		if !(d2 < 0 && next > lo && next < hi) {
			next = m.n1 / (m.n1/u - d1)
			if !(next > lo && next < hi) {
				if math.IsInf(hi, 1) {
					next = 2 * u
				} else {
					next = lo + (hi-lo)/2
				}
			}
		}
		if math.Abs(next-u) <= solveTol*u {
			return u, f, nil
		}
		u = next
	}
	return 0, 0, fmt.Errorf("core: M-step did not converge; log L(theta) may have no maximum at positive theta")
}
