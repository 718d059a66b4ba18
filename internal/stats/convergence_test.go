package stats

import (
	"math"
	"testing"
)

// lcg produces a deterministic pseudo-random stream for diagnostics tests.
type lcg uint64

func (l *lcg) next() float64 {
	*l = (*l)*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / float64(1<<53)
}

func (l *lcg) gauss() float64 {
	// Irwin-Hall approximation suffices here.
	s := 0.0
	for i := 0; i < 12; i++ {
		s += l.next()
	}
	return s - 6
}

func TestGelmanRubinMixedChains(t *testing.T) {
	r := lcg(7)
	chains := make([][]float64, 4)
	for i := range chains {
		chains[i] = make([]float64, 2000)
		for j := range chains[i] {
			chains[i][j] = r.gauss()
		}
	}
	rhat := GelmanRubin(chains)
	if math.Abs(rhat-1) > 0.02 {
		t.Errorf("R-hat for identical-distribution chains = %v, want ~1", rhat)
	}
}

func TestGelmanRubinSeparatedChains(t *testing.T) {
	r := lcg(8)
	chains := make([][]float64, 3)
	for i := range chains {
		chains[i] = make([]float64, 500)
		for j := range chains[i] {
			chains[i][j] = r.gauss() + float64(i)*10 // far-apart modes
		}
	}
	rhat := GelmanRubin(chains)
	if rhat < 2 {
		t.Errorf("R-hat for separated chains = %v, want >> 1", rhat)
	}
}

func TestGelmanRubinDegenerate(t *testing.T) {
	if !math.IsNaN(GelmanRubin(nil)) {
		t.Error("nil chains should be NaN")
	}
	if !math.IsNaN(GelmanRubin([][]float64{{1, 2, 3}})) {
		t.Error("single chain should be NaN")
	}
	if !math.IsNaN(GelmanRubin([][]float64{{1, 2}, {1}})) {
		t.Error("ragged chains should be NaN")
	}
	if got := GelmanRubin([][]float64{{5, 5, 5}, {5, 5, 5}}); got != 1 {
		t.Errorf("constant identical chains R-hat = %v, want 1", got)
	}
}

func TestGewekeStationary(t *testing.T) {
	r := lcg(9)
	trace := make([]float64, 4000)
	for i := range trace {
		trace[i] = r.gauss()
	}
	z := Geweke(trace, 0.2, 0.5)
	if math.IsNaN(z) || math.Abs(z) > 3 {
		t.Errorf("Geweke z on stationary trace = %v, want |z| < 3", z)
	}
}

func TestGewekeDriftingTrace(t *testing.T) {
	// A trace with a strong initial transient: early mean far from late
	// mean.
	r := lcg(10)
	trace := make([]float64, 4000)
	for i := range trace {
		drift := 0.0
		if i < 800 {
			drift = 20 * (1 - float64(i)/800)
		}
		trace[i] = r.gauss() + drift
	}
	z := Geweke(trace, 0.2, 0.5)
	if math.IsNaN(z) || math.Abs(z) < 2.5 {
		t.Errorf("Geweke z on transient trace = %v, want |z| >= 2.5", z)
	}
}

// TestGewekeLinearTrend: a steady drift, small against the noise at
// any one draw, is not stationary and must fail the check.
func TestGewekeLinearTrend(t *testing.T) {
	r := lcg(14)
	trace := make([]float64, 4000)
	for i := range trace {
		trace[i] = r.gauss() + float64(i)/2000
	}
	if z := Geweke(trace, 0.2, 0.5); !(math.Abs(z) >= 2) {
		t.Errorf("Geweke z on a linear trend = %v, want |z| >= 2", z)
	}
}

func TestGewekeDegenerate(t *testing.T) {
	if !math.IsNaN(Geweke(make([]float64, 5), 0.2, 0.5)) {
		t.Error("short trace should be NaN")
	}
	if !math.IsNaN(Geweke(make([]float64, 100), 0.7, 0.5)) {
		t.Error("overlapping fractions should be NaN")
	}
}

func TestDetectBurninFindsTransient(t *testing.T) {
	r := lcg(11)
	n := 8000
	transient := 1000
	trace := make([]float64, n)
	for i := range trace {
		drift := 0.0
		if i < transient {
			drift = 30 * (1 - float64(i)/float64(transient))
		}
		trace[i] = r.gauss() + drift
	}
	cut := DetectBurnin(trace)
	if cut < transient/4 {
		t.Errorf("burn-in cut %d far below the %d-draw transient", cut, transient)
	}
	if cut > n/2 {
		t.Errorf("burn-in cut %d exceeds half the trace", cut)
	}
	// The post-cut trace must pass the stationarity check.
	if z := Geweke(trace[cut:], 0.2, 0.5); math.Abs(z) > 2.5 {
		t.Errorf("post-cut Geweke z = %v", z)
	}
}

func TestDetectBurninStationaryTraceSmallCut(t *testing.T) {
	r := lcg(12)
	trace := make([]float64, 4000)
	for i := range trace {
		trace[i] = r.gauss()
	}
	if cut := DetectBurnin(trace); cut > len(trace)/8 {
		t.Errorf("burn-in cut %d on an already-stationary trace, want small", cut)
	}
}

func TestDetectBurninShortTrace(t *testing.T) {
	if cut := DetectBurnin(make([]float64, 10)); cut != 5 {
		t.Errorf("short trace cut = %d, want half", cut)
	}
}
