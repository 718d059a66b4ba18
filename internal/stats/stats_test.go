package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", s)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one point should be NaN")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	// Hand-computed: r for these series is 0.9 within rounding.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1.2, 1.9, 3.3, 3.7, 5.1}
	r := Pearson(xs, ys)
	if r < 0.97 || r > 1.0 {
		t.Errorf("Pearson = %v, want high positive", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{3})) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero-variance series should be NaN")
	}
}

func TestAutocorrelation(t *testing.T) {
	// Alternating series: lag-1 autocorrelation approaches -1.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if rho := Autocorrelation(xs, 1); rho > -0.99 {
		t.Errorf("lag-1 autocorrelation = %v, want ~-1", rho)
	}
	if rho := Autocorrelation(xs, 0); math.Abs(rho-1) > 1e-12 {
		t.Errorf("lag-0 autocorrelation = %v, want 1", rho)
	}
}

func TestEffectiveSampleSizeIID(t *testing.T) {
	// A deterministic low-autocorrelation sequence: ESS near n.
	xs := make([]float64, 2000)
	state := uint64(12345)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = float64(state>>11) / float64(1<<53)
	}
	ess := EffectiveSampleSize(xs)
	if ess < 1000 {
		t.Errorf("ESS of near-iid sequence = %v, want > 1000", ess)
	}
	if ess > 2000 {
		t.Errorf("ESS = %v exceeds n", ess)
	}
}

func TestEffectiveSampleSizeCorrelated(t *testing.T) {
	// A heavily smoothed random walk has ESS much below n.
	xs := make([]float64, 2000)
	state := uint64(99)
	v := 0.0
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11)/float64(1<<53) - 0.5
		v = 0.98*v + u
		xs[i] = v
	}
	ess := EffectiveSampleSize(xs)
	if ess > 500 {
		t.Errorf("ESS of AR(0.98) sequence = %v, want far below n", ess)
	}
}

func TestAsciiPlotContainsSeries(t *testing.T) {
	series := map[string][]Point{
		"alpha": {{0, 0}, {1, 1}, {2, 4}},
		"beta":  {{0, 4}, {1, 2}, {2, 0}},
	}
	out := AsciiPlot("Test Plot", "x", "y", series, 40, 12)
	for _, want := range []string{"Test Plot", "alpha", "beta", "*", "o", "x  (y: y)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	out := AsciiPlot("Empty", "x", "y", map[string][]Point{}, 40, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty plot output: %q", out)
	}
}

func TestAsciiPlotSinglePoint(t *testing.T) {
	out := AsciiPlot("One", "x", "y", map[string][]Point{"s": {{1, 1}}}, 30, 10)
	if !strings.Contains(out, "*") {
		t.Errorf("single point not plotted:\n%s", out)
	}
}
