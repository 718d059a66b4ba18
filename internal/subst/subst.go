// Package subst implements the nucleotide substitution models of the
// sampler and its data simulator.
//
// The likelihood kernel uses the model of paper Eq. 20 (Felsenstein 1981,
// "F81"): P_XY(t) = e^{-ut}·δ_XY + (1-e^{-ut})·π_Y, with π estimated from
// the empirical base frequencies of the data. The seq-gen substrate uses
// F84, the model the paper simulates under (§6.1, `-mF84`) — keeping the
// deliberate simulate/infer model mismatch the paper identifies as a
// source of estimation bias. JC69 is F81 with uniform frequencies.
package subst

import (
	"fmt"
	"math"

	"mpcgs/internal/bitseq"
)

// Matrix is a 4x4 transition probability matrix: Matrix[x][y] is the
// probability that an ancestral nucleotide x is observed as y after time t
// along a branch.
type Matrix [4][4]float64

// Model computes transition probabilities over branches and exposes its
// stationary distribution.
type Model interface {
	// TransitionInto fills m with the transition matrix for elapsed time t.
	TransitionInto(t float64, m *Matrix)
	// Freqs returns the stationary (prior) nucleotide distribution π.
	Freqs() [4]float64
	// Name identifies the model for reports.
	Name() string
}

// Uniform is the uniform nucleotide distribution.
var Uniform = [4]float64{0.25, 0.25, 0.25, 0.25}

func validateFreqs(freqs [4]float64) error {
	sum := 0.0
	for i, f := range freqs {
		if f <= 0 || math.IsNaN(f) {
			return fmt.Errorf("subst: frequency of %v is %v, must be positive", bitseq.Base(i), f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("subst: frequencies sum to %v, want 1", sum)
	}
	return nil
}

// F81 is the Felsenstein 1981 model of paper Eq. 20.
type F81 struct {
	freqs [4]float64
	u     float64 // event rate; chosen so branch lengths are expected substitutions when normalized
}

// NewF81 builds an F81 model with the given stationary frequencies.
// When normalize is true the event rate u is scaled so one unit of branch
// length equals one expected substitution per site (u = 1/(1-Σπ²));
// otherwise u = 1 exactly as Eq. 20 is written.
func NewF81(freqs [4]float64, normalize bool) (*F81, error) {
	if err := validateFreqs(freqs); err != nil {
		return nil, err
	}
	u := 1.0
	if normalize {
		ss := 0.0
		for _, f := range freqs {
			ss += f * f
		}
		u = 1 / (1 - ss)
	}
	return &F81{freqs: freqs, u: u}, nil
}

// Name implements Model.
func (m *F81) Name() string { return "F81" }

// Freqs implements Model.
func (m *F81) Freqs() [4]float64 { return m.freqs }

// EventRate exposes the internal event rate u (for tests).
func (m *F81) EventRate() float64 { return m.u }

// TransitionInto implements Model with paper Eq. 20:
// P_XY(t) = e^{-ut} δ_XY + (1-e^{-ut}) π_Y.
func (m *F81) TransitionInto(t float64, p *Matrix) {
	e := math.Exp(-m.u * t)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			v := (1 - e) * m.freqs[y]
			if x == y {
				v += e
			}
			p[x][y] = v
		}
	}
}

// NewJC69 returns the Jukes-Cantor 1969 model: F81 with uniform
// frequencies, normalized so branch lengths are expected substitutions.
func NewJC69() *F81 {
	m, err := NewF81(Uniform, true)
	if err != nil {
		panic(err) // uniform frequencies always validate
	}
	return m
}

// ByName builds the likelihood model an estimation names: "f81" (paper
// Eq. 20), "jc69" or "f84" (kappa 2), normalized so branch lengths are
// expected substitutions per site. freqs are the data's empirical base
// frequencies; jc69 ignores them.
func ByName(name string, freqs [4]float64) (Model, error) {
	switch name {
	case "f81":
		return NewF81(freqs, true)
	case "jc69":
		return NewJC69(), nil
	case "f84":
		return NewF84(freqs, 2.0, true)
	default:
		return nil, fmt.Errorf("subst: unknown model %q", name)
	}
}

// F84 is the Felsenstein 1984 model: substitution events are either
// "general" (rate b, new base drawn from π) or "within-group" (rate a, new
// base drawn from π restricted to the purine {A,G} or pyrimidine {C,T}
// group of the current base), which gives transitions an elevated rate.
type F84 struct {
	freqs [4]float64
	a, b  float64
	group [4]float64 // π_R for purines, π_Y for pyrimidines, indexed by base
}

// NewF84 builds an F84 model. kappa is the ratio a/b of within-group to
// general event rates (kappa = 0 reduces to F81). When normalize is true,
// rates are scaled so one unit of branch length equals one expected
// substitution per site.
func NewF84(freqs [4]float64, kappa float64, normalize bool) (*F84, error) {
	if err := validateFreqs(freqs); err != nil {
		return nil, err
	}
	if kappa < 0 {
		return nil, fmt.Errorf("subst: F84 kappa %v must be non-negative", kappa)
	}
	m := &F84{freqs: freqs}
	piR := freqs[bitseq.A] + freqs[bitseq.G]
	piY := freqs[bitseq.C] + freqs[bitseq.T]
	m.group = [4]float64{piR, piY, piR, piY}

	b := 1.0
	a := kappa * b
	if normalize {
		// Expected substitutions per unit time:
		//   b-events change the base with probability 1-π_x;
		//   a-events change it with probability 1-π_x/π_group(x).
		rate := 0.0
		for x := 0; x < 4; x++ {
			rate += freqs[x] * (b*(1-freqs[x]) + a*(1-freqs[x]/m.group[x]))
		}
		b /= rate
		a /= rate
	}
	m.a, m.b = a, b
	return m, nil
}

// Name implements Model.
func (m *F84) Name() string { return "F84" }

// Freqs implements Model.
func (m *F84) Freqs() [4]float64 { return m.freqs }

// Rates exposes the internal (a, b) event rates (for tests).
func (m *F84) Rates() (a, b float64) { return m.a, m.b }

// TransitionInto implements Model with the event-based F84 solution:
//
//	P_XY(t) = e^{-(a+b)t} δ_XY
//	        + e^{-bt}(1-e^{-at}) π_Y/π_group(X)   if Y in group(X)
//	        + (1-e^{-bt}) π_Y
func (m *F84) TransitionInto(t float64, p *Matrix) {
	eb := math.Exp(-m.b * t)
	ea := math.Exp(-m.a * t)
	for x := 0; x < 4; x++ {
		sameGroupFactor := eb * (1 - ea) / m.group[x]
		for y := 0; y < 4; y++ {
			v := (1 - eb) * m.freqs[y]
			if sameGroup(x, y) {
				v += sameGroupFactor * m.freqs[y]
			}
			if x == y {
				v += eb * ea
			}
			p[x][y] = v
		}
	}
}

// sameGroup reports whether bases x and y are both purines or both
// pyrimidines. With the A=0,C=1,G=2,T=3 encoding, parity determines the
// group.
func sameGroup(x, y int) bool { return (x^y)&1 == 0 }

var (
	_ Model = (*F81)(nil)
	_ Model = (*F84)(nil)
)
