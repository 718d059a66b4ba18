package resim

import (
	"math"
	"testing"

	"mpcgs/internal/rng"
)

// prob returns S_{a,b}(L): the probability that an interval of length L
// entered with a active lineages ends with b, with no killing. Zero for
// transitions outside b ∈ [max(1, a-2), a].
func (tr *transitions) prob(a, b int, L float64) float64 {
	if a < 1 || a > maxActive || b < 0 || b > maxActive {
		return 0
	}
	t := tr.table(L)
	return t[a][b]
}

func TestProbZeroLengthIsIdentity(t *testing.T) {
	tr := newTransitions(2, 1.5)
	for a := 1; a <= 3; a++ {
		for b := 1; b <= 3; b++ {
			want := 0.0
			if a == b {
				want = 1.0
			}
			if got := tr.prob(a, b, 0); got != want {
				t.Errorf("S_%d%d(0) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestProbOutOfRangeIsZero(t *testing.T) {
	tr := newTransitions(1, 1)
	cases := [][2]int{{1, 2}, {2, 3}, {1, 3}, {3, 0}, {2, 0}, {1, 0}}
	for _, c := range cases {
		if got := tr.prob(c[0], c[1], 0.5); got != 0 {
			t.Errorf("S_%d%d = %v, want 0", c[0], c[1], got)
		}
	}
}

func TestProbMassConservedWithoutKilling(t *testing.T) {
	// With no inactive lineages there is no killing: rows sum to 1.
	tr := newTransitions(0, 2.0)
	for a := 1; a <= 3; a++ {
		for _, L := range []float64{0.1, 1, 5} {
			sum := 0.0
			for b := 1; b <= a; b++ {
				sum += tr.prob(a, b, L)
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Errorf("a=%d L=%v: row sum = %v, want 1", a, L, sum)
			}
		}
	}
}

func TestProbMassLeaksWithKilling(t *testing.T) {
	tr := newTransitions(3, 1.0)
	for a := 1; a <= 3; a++ {
		sum := 0.0
		for b := 1; b <= a; b++ {
			sum += tr.prob(a, b, 1.0)
		}
		if sum >= 1 {
			t.Errorf("a=%d: row sum = %v, want < 1 with killing", a, sum)
		}
		if sum <= 0 {
			t.Errorf("a=%d: row sum = %v, want > 0", a, sum)
		}
	}
}

// simulateProcess runs the killed death process once and reports the final
// active count, or 0 if a killing event occurred before L.
func simulateProcess(tr *transitions, a int, L float64, src rng.Source) int {
	t := 0.0
	for {
		lam := tr.lambda[a]
		if lam == 0 {
			return a // a=1 with no inactive lineages: nothing can happen
		}
		t += rng.Exp(src, lam)
		if t >= L {
			return a
		}
		if src.Float64() < tr.mu[a]/lam {
			a--
			if a == 1 && tr.lambda[1] == 0 {
				return 1
			}
		} else {
			return 0 // killed
		}
	}
}

func TestProbMatchesMonteCarlo(t *testing.T) {
	src := rng.NewMT19937(300)
	const reps = 200000
	for _, kin := range []int{0, 1, 3} {
		tr := newTransitions(kin, 1.2)
		L := 0.35
		for a := 1; a <= 3; a++ {
			var counts [4]int
			for r := 0; r < reps; r++ {
				counts[simulateProcess(&tr, a, L, src)]++
			}
			for b := 1; b <= a; b++ {
				got := float64(counts[b]) / reps
				want := tr.prob(a, b, L)
				se := math.Sqrt(want*(1-want)/reps) + 1e-9
				if math.Abs(got-want) > 5*se+0.002 {
					t.Errorf("kin=%d a=%d b=%d: MC %v vs closed form %v", kin, a, b, got, want)
				}
			}
		}
	}
}

func TestPlaceOneDistribution(t *testing.T) {
	// Conditioned single-event placement is a truncated exponential with
	// rate λ_a - λ_{a-1}; check the mean.
	src := rng.NewMT19937(301)
	tr := newTransitions(2, 1.0)
	a, L := 2, 0.8
	rate := tr.lambda[2] - tr.lambda[1]
	const reps = 200000
	sum := 0.0
	for r := 0; r < reps; r++ {
		s := tr.placeOne(a, L, src)
		if s <= 0 || s >= L {
			t.Fatalf("placeOne out of (0,%v): %v", L, s)
		}
		sum += s
	}
	rb := rate * L
	want := 1/rate - L*math.Exp(-rb)/(1-math.Exp(-rb))
	if math.Abs(sum/reps-want) > 0.003 {
		t.Errorf("placeOne mean = %v, want %v", sum/reps, want)
	}
}

func TestPlaceTwoDistribution(t *testing.T) {
	// Compare placeTwo's marginals against direct numerical integration
	// of the joint density e^{-α s1} e^{-β s2} over 0 < s1 < s2 < L.
	src := rng.NewMT19937(302)
	tr := newTransitions(1, 2.0)
	L := 3.0
	alpha := tr.lambda[3] - tr.lambda[2]
	beta := tr.lambda[2] - tr.lambda[1]

	const grid = 1200
	h := L / grid
	var z, m1, m2 float64
	for i := 0; i < grid; i++ {
		s1 := (float64(i) + 0.5) * h
		for j := i; j < grid; j++ {
			s2 := (float64(j) + 0.5) * h
			w := math.Exp(-alpha*s1 - beta*s2)
			z += w
			m1 += w * s1
			m2 += w * s2
		}
	}
	wantS1, wantS2 := m1/z, m2/z

	const reps = 150000
	var sum1, sum2 float64
	for r := 0; r < reps; r++ {
		s1, s2 := tr.placeTwo(L, src)
		if !(0 < s1 && s1 < s2 && s2 <= L) {
			t.Fatalf("placeTwo violated ordering: s1=%v s2=%v", s1, s2)
		}
		sum1 += s1
		sum2 += s2
	}
	got1, got2 := sum1/reps, sum2/reps
	if math.Abs(got1-wantS1) > 0.01 {
		t.Errorf("E[s1] = %v, want %v", got1, wantS1)
	}
	if math.Abs(got2-wantS2) > 0.01 {
		t.Errorf("E[s2] = %v, want %v", got2, wantS2)
	}
}

func TestProbNumericalIntegrationCrossCheck(t *testing.T) {
	// S_31(L) must equal the double integral
	// ∫∫_{0<s1<s2<L} μ3 e^{-λ3 s1} μ2 e^{-λ2(s2-s1)} e^{-λ1(L-s2)} ds.
	tr := newTransitions(2, 1.7)
	L := 0.9
	const grid = 2000
	h := L / grid
	sum := 0.0
	for i := 0; i < grid; i++ {
		s1 := (float64(i) + 0.5) * h
		for j := i; j < grid; j++ {
			s2 := (float64(j) + 0.5) * h
			sum += tr.mu[3] * math.Exp(-tr.lambda[3]*s1) *
				tr.mu[2] * math.Exp(-tr.lambda[2]*(s2-s1)) *
				math.Exp(-tr.lambda[1]*(L-s2)) * h * h
		}
	}
	want := tr.prob(3, 1, L)
	if math.Abs(sum-want) > 1e-3*want {
		t.Errorf("numerical S_31 = %v, closed form %v", sum, want)
	}
}

func TestProbS21CrossCheck(t *testing.T) {
	tr := newTransitions(1, 0.8)
	L := 0.6
	const grid = 200000
	h := L / grid
	sum := 0.0
	for i := 0; i < grid; i++ {
		s := (float64(i) + 0.5) * h
		sum += tr.mu[2] * math.Exp(-tr.lambda[2]*s) * math.Exp(-tr.lambda[1]*(L-s)) * h
	}
	want := tr.prob(2, 1, L)
	if math.Abs(sum-want) > 1e-4*want {
		t.Errorf("numerical S_21 = %v, closed form %v", sum, want)
	}
}

func TestEm1(t *testing.T) {
	if got := em1(2, 3); math.Abs(got-(1-math.Exp(-6))/2) > 1e-14 {
		t.Errorf("em1(2,3) = %v", got)
	}
	// Limit r -> 0 is x.
	if got := em1(1e-15, 2); math.Abs(got-2) > 1e-9 {
		t.Errorf("em1(~0,2) = %v, want 2", got)
	}
}

func TestClampInside(t *testing.T) {
	L := 2.0
	if s := clampInside(0, L); s <= 0 {
		t.Errorf("clampInside(0) = %v, want > 0", s)
	}
	if s := clampInside(L, L); s >= L {
		t.Errorf("clampInside(L) = %v, want < L", s)
	}
	if s := clampInside(1, L); s != 1 {
		t.Errorf("clampInside(1) = %v, want 1", s)
	}
}

func TestLambdaOrdering(t *testing.T) {
	for kin := 0; kin <= 5; kin++ {
		tr := newTransitions(kin, 0.9)
		if !(tr.lambda[3] > tr.lambda[2] && tr.lambda[2] > tr.lambda[1]) {
			t.Errorf("kin=%d: lambdas not strictly ordered: %v", kin, tr.lambda)
		}
		if tr.lambda[1] != 2*float64(kin)/0.9 {
			t.Errorf("kin=%d: lambda1 = %v", kin, tr.lambda[1])
		}
	}
}

// TestTableMatchesPerEntryClosedForms: the table evaluates each survival
// factor e^{-λ_a L} once and shares it between entries; every entry must
// equal, bit for bit, its closed form evaluated on its own with fresh
// exponentials, so sharing the factors changes no draw.
func TestTableMatchesPerEntryClosedForms(t *testing.T) {
	src := rng.NewMT19937(420)
	for trial := 0; trial < 5000; trial++ {
		kin := rng.Intn(src, 30)
		theta := math.Exp(10*src.Float64() - 5)
		L := math.Exp(12*src.Float64() - 8)
		tr := newTransitions(kin, theta)
		got := tr.table(L)
		var want transTable
		for a := 1; a <= maxActive; a++ {
			want[a][a] = math.Exp(-tr.lambda[a] * L)
			if a >= 2 {
				la, lb := tr.lambda[a], tr.lambda[a-1]
				want[a][a-1] = tr.mu[a] * (math.Exp(-lb*L) - math.Exp(-la*L)) / (la - lb)
			}
		}
		l1, l2, l3 := tr.lambda[1], tr.lambda[2], tr.lambda[3]
		e1, e2, e3 := math.Exp(-l1*L), math.Exp(-l2*L), math.Exp(-l3*L)
		v := (e1-e3)/(l3-l1) - (e2-e3)/(l3-l2)
		want[3][1] = tr.mu[3] * tr.mu[2] * v / (l2 - l1)
		for a := range want {
			for b := range want[a] {
				if math.Float64bits(got[a][b]) != math.Float64bits(want[a][b]) {
					t.Fatalf("kin=%d theta=%v L=%v: S[%d][%d] = %v, closed form %v", kin, theta, L, a, b, got[a][b], want[a][b])
				}
			}
		}
	}
}
