package subst

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var skewed = [4]float64{0.1, 0.2, 0.3, 0.4}

func allModels(t *testing.T) map[string]Model {
	t.Helper()
	f81, err := NewF81(skewed, true)
	if err != nil {
		t.Fatal(err)
	}
	f81raw, err := NewF81(skewed, false)
	if err != nil {
		t.Fatal(err)
	}
	f84, err := NewF84(skewed, 2.0, true)
	if err != nil {
		t.Fatal(err)
	}
	f84k0, err := NewF84(skewed, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Model{
		"F81":        f81,
		"F81raw":     f81raw,
		"F84":        f84,
		"F84kappa0":  f84k0,
		"JC69":       NewJC69(),
		"F84uniform": mustF84(t, Uniform, 3.0),
	}
}

func mustF84(t *testing.T, freqs [4]float64, kappa float64) *F84 {
	t.Helper()
	m, err := NewF84(freqs, kappa, true)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRowsSumToOne(t *testing.T) {
	for name, m := range allModels(t) {
		for _, tm := range []float64{0, 1e-6, 0.01, 0.5, 1, 10, 1000} {
			var p Matrix
			m.TransitionInto(tm, &p)
			for x := 0; x < 4; x++ {
				sum := 0.0
				for y := 0; y < 4; y++ {
					if p[x][y] < 0 || p[x][y] > 1 {
						t.Errorf("%s t=%v: P[%d][%d] = %v out of [0,1]", name, tm, x, y, p[x][y])
					}
					sum += p[x][y]
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Errorf("%s t=%v: row %d sums to %v", name, tm, x, sum)
				}
			}
		}
	}
}

func TestZeroTimeIsIdentity(t *testing.T) {
	for name, m := range allModels(t) {
		var p Matrix
		m.TransitionInto(0, &p)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				want := 0.0
				if x == y {
					want = 1.0
				}
				if math.Abs(p[x][y]-want) > 1e-14 {
					t.Errorf("%s: P(0)[%d][%d] = %v, want %v", name, x, y, p[x][y], want)
				}
			}
		}
	}
}

func TestInfiniteTimeReachesStationary(t *testing.T) {
	for name, m := range allModels(t) {
		var p Matrix
		m.TransitionInto(1e6, &p)
		freqs := m.Freqs()
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				if math.Abs(p[x][y]-freqs[y]) > 1e-9 {
					t.Errorf("%s: P(inf)[%d][%d] = %v, want pi=%v", name, x, y, p[x][y], freqs[y])
				}
			}
		}
	}
}

func TestChapmanKolmogorov(t *testing.T) {
	// P(s)P(t) must equal P(s+t): the models are time-homogeneous Markov.
	for name, m := range allModels(t) {
		var ps, pt, pst Matrix
		s, tm := 0.3, 0.7
		m.TransitionInto(s, &ps)
		m.TransitionInto(tm, &pt)
		m.TransitionInto(s+tm, &pst)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				sum := 0.0
				for z := 0; z < 4; z++ {
					sum += ps[x][z] * pt[z][y]
				}
				if math.Abs(sum-pst[x][y]) > 1e-12 {
					t.Errorf("%s: (P(s)P(t))[%d][%d] = %v, want %v", name, x, y, sum, pst[x][y])
				}
			}
		}
	}
}

func TestDetailedBalance(t *testing.T) {
	// Both F81 and F84 are reversible: pi_x P_xy(t) == pi_y P_yx(t).
	for name, m := range allModels(t) {
		var p Matrix
		m.TransitionInto(0.37, &p)
		freqs := m.Freqs()
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				lhs := freqs[x] * p[x][y]
				rhs := freqs[y] * p[y][x]
				if math.Abs(lhs-rhs) > 1e-14 {
					t.Errorf("%s: detailed balance violated at (%d,%d): %v vs %v", name, x, y, lhs, rhs)
				}
			}
		}
	}
}

func TestStationarityPreserved(t *testing.T) {
	// pi P(t) == pi.
	for name, m := range allModels(t) {
		var p Matrix
		m.TransitionInto(0.9, &p)
		freqs := m.Freqs()
		for y := 0; y < 4; y++ {
			sum := 0.0
			for x := 0; x < 4; x++ {
				sum += freqs[x] * p[x][y]
			}
			if math.Abs(sum-freqs[y]) > 1e-12 {
				t.Errorf("%s: (pi P)[%d] = %v, want %v", name, y, sum, freqs[y])
			}
		}
	}
}

func TestF81MatchesPaperEq20(t *testing.T) {
	// Unnormalized F81 is literally Eq. 20 with u = 1.
	m, err := NewF81(skewed, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventRate() != 1 {
		t.Fatalf("unnormalized u = %v, want 1", m.EventRate())
	}
	var p Matrix
	tm := 0.42
	m.TransitionInto(tm, &p)
	e := math.Exp(-tm)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			want := (1 - e) * skewed[y]
			if x == y {
				want += e
			}
			if math.Abs(p[x][y]-want) > 1e-15 {
				t.Errorf("P[%d][%d] = %v, want %v", x, y, p[x][y], want)
			}
		}
	}
}

func TestF81NormalizedRate(t *testing.T) {
	// With normalization, the expected number of substitutions over a
	// branch of length t must be t for small t (d/dt at 0 == 1).
	m, err := NewF81(skewed, true)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 1e-7
	var p Matrix
	m.TransitionInto(dt, &p)
	change := 0.0
	for x := 0; x < 4; x++ {
		change += skewed[x] * (1 - p[x][x])
	}
	if math.Abs(change/dt-1) > 1e-5 {
		t.Errorf("substitution rate = %v, want 1", change/dt)
	}
}

func TestF84NormalizedRate(t *testing.T) {
	m := mustF84(t, skewed, 2.0)
	const dt = 1e-7
	var p Matrix
	m.TransitionInto(dt, &p)
	change := 0.0
	for x := 0; x < 4; x++ {
		change += skewed[x] * (1 - p[x][x])
	}
	if math.Abs(change/dt-1) > 1e-5 {
		t.Errorf("substitution rate = %v, want 1", change/dt)
	}
}

func TestF84TransitionBias(t *testing.T) {
	// With kappa > 0, transitions (A<->G, C<->T) must be more probable
	// than transversions at moderate times, relative to their stationary
	// frequencies.
	m := mustF84(t, Uniform, 4.0)
	var p Matrix
	m.TransitionInto(0.2, &p)
	if p[0][2] <= p[0][1] {
		t.Errorf("A->G (%v) should exceed A->C (%v) under transition bias", p[0][2], p[0][1])
	}
	if p[1][3] <= p[1][0] {
		t.Errorf("C->T (%v) should exceed C->A (%v)", p[1][3], p[1][0])
	}
}

func TestF84KappaZeroEqualsF81(t *testing.T) {
	f84, err := NewF84(skewed, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	f81, err := NewF81(skewed, true)
	if err != nil {
		t.Fatal(err)
	}
	var a, b Matrix
	for _, tm := range []float64{0.1, 0.5, 2} {
		f84.TransitionInto(tm, &a)
		f81.TransitionInto(tm, &b)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				if math.Abs(a[x][y]-b[x][y]) > 1e-12 {
					t.Errorf("t=%v: F84(k=0)[%d][%d]=%v != F81=%v", tm, x, y, a[x][y], b[x][y])
				}
			}
		}
	}
}

func TestJC69ClosedForm(t *testing.T) {
	// JC69: P_xx(t) = 1/4 + 3/4 e^{-4t/3}, P_xy(t) = 1/4 - 1/4 e^{-4t/3}.
	m := NewJC69()
	var p Matrix
	tm := 0.6
	m.TransitionInto(tm, &p)
	e := math.Exp(-4.0 * tm / 3.0)
	same := 0.25 + 0.75*e
	diff := 0.25 - 0.25*e
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			want := diff
			if x == y {
				want = same
			}
			if math.Abs(p[x][y]-want) > 1e-14 {
				t.Errorf("JC69 P[%d][%d] = %v, want %v", x, y, p[x][y], want)
			}
		}
	}
}

func TestInvalidFrequencies(t *testing.T) {
	bad := [][4]float64{
		{0.5, 0.5, 0, 0},       // zero entries
		{0.3, 0.3, 0.3, 0.3},   // sums to 1.2
		{-0.1, 0.4, 0.4, 0.3},  // negative
		{0.25, 0.25, 0.25, .2}, // sums to 0.95
	}
	for _, f := range bad {
		if _, err := NewF81(f, true); err == nil {
			t.Errorf("NewF81(%v) accepted invalid frequencies", f)
		}
		if _, err := NewF84(f, 1, true); err == nil {
			t.Errorf("NewF84(%v) accepted invalid frequencies", f)
		}
	}
	if _, err := NewF84(Uniform, -1, true); err == nil {
		t.Error("negative kappa accepted")
	}
}

func TestChapmanKolmogorovQuick(t *testing.T) {
	m := mustF84(t, skewed, 1.7)
	f := func(sRaw, tRaw float64) bool {
		s := math.Abs(math.Mod(sRaw, 5))
		u := math.Abs(math.Mod(tRaw, 5))
		var ps, pu, psu Matrix
		m.TransitionInto(s, &ps)
		m.TransitionInto(u, &pu)
		m.TransitionInto(s+u, &psu)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				sum := 0.0
				for z := 0; z < 4; z++ {
					sum += ps[x][z] * pu[z][y]
				}
				if math.Abs(sum-psu[x][y]) > 1e-11 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSameGroup(t *testing.T) {
	// A(0),G(2) purines; C(1),T(3) pyrimidines.
	cases := []struct {
		x, y int
		want bool
	}{
		{0, 2, true}, {2, 0, true}, {1, 3, true}, {3, 1, true},
		{0, 0, true}, {1, 1, true},
		{0, 1, false}, {0, 3, false}, {2, 1, false}, {2, 3, false},
	}
	for _, c := range cases {
		if got := sameGroup(c.x, c.y); got != c.want {
			t.Errorf("sameGroup(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{"f81": "F81", "jc69": "F81", "f84": "F84"} {
		m, err := ByName(name, skewed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != want {
			t.Errorf("%s: built %s, want %s", name, m.Name(), want)
		}
	}
	if m, _ := ByName("jc69", skewed); m.Freqs() != Uniform {
		t.Errorf("jc69 freqs %v, want uniform", m.Freqs())
	}
	if _, err := ByName("F81", skewed); err == nil {
		t.Error("model names are lower-case; F81 accepted")
	}
}
