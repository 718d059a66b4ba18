package core

import (
	"fmt"
	"math"
	"testing"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
	"mpcgs/internal/logspace"
)

func syntheticSet(theta0 float64, nTips int, stats []float64) *SampleSet {
	return &SampleSet{
		NTips:  nTips,
		Theta0: theta0,
		Stats:  stats,
		LogLik: make([]float64, len(stats)),
	}
}

func TestRelLogLikelihoodAtTheta0IsZero(t *testing.T) {
	s := syntheticSet(1.3, 5, []float64{0.8, 1.2, 2.0})
	if got := RelLogLikelihood(s, 1.3, device.Serial()); math.Abs(got) > 1e-12 {
		t.Errorf("log L(theta0) = %v, want 0", got)
	}
}

func TestRelLogLikelihoodMatchesDirectMean(t *testing.T) {
	s := syntheticSet(1.0, 4, []float64{0.5, 1.5, 3.0, 0.9})
	theta := 2.2
	terms := make([]float64, len(s.Stats))
	for i, st := range s.Stats {
		terms[i] = coalprior.LogPriorRatio(4, st, theta, 1.0)
	}
	want := logspace.Mean(terms)
	got := RelLogLikelihood(s, theta, device.New(4))
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("RelLogLikelihood = %v, want %v", got, want)
	}
}

func TestMaximizeThetaSingleSampleClosedForm(t *testing.T) {
	// With one sample, log L(theta) = (n-1) log(theta0/theta)
	// - S (1/theta - 1/theta0), maximized at theta* = S/(n-1).
	nTips := 6
	sumKKT := 3.7
	want := sumKKT / float64(nTips-1)
	s := syntheticSet(0.5, nTips, []float64{sumKKT})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-4*want {
		t.Errorf("MaximizeTheta = %v, want %v", got, want)
	}
}

func TestMaximizeThetaFarStart(t *testing.T) {
	// Driving theta far below the maximizer (the paper's Fig. 5 setup:
	// theta0 = 0.01, truth near 1): the ascent must still climb there.
	nTips := 10
	sumKKT := 9.0 // theta* = 1.0
	s := syntheticSet(0.01, nTips, []float64{sumKKT})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-3 {
		t.Errorf("MaximizeTheta from 0.01 = %v, want 1.0", got)
	}
}

func TestMaximizeThetaMatchesGridSearch(t *testing.T) {
	s := syntheticSet(0.8, 7, []float64{2.0, 3.5, 5.0, 4.2, 2.8})
	dev := device.Serial()
	got, err := MaximizeTheta(s, MLEConfig{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	bestTheta, bestVal := 0.0, math.Inf(-1)
	for theta := 0.05; theta < 5; theta += 0.0005 {
		if v := RelLogLikelihood(s, theta, dev); v > bestVal {
			bestVal, bestTheta = v, theta
		}
	}
	if math.Abs(got-bestTheta) > 0.002 {
		t.Errorf("MaximizeTheta = %v, grid search = %v", got, bestTheta)
	}
	if RelLogLikelihood(s, got, dev) < bestVal-1e-6 {
		t.Errorf("ascent value %v below grid value %v", RelLogLikelihood(s, got, dev), bestVal)
	}
}

func TestMaximizeThetaStaysPositive(t *testing.T) {
	// A sample set pushing theta towards zero must not cross it.
	s := syntheticSet(1.0, 4, []float64{1e-6})
	got, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("MaximizeTheta = %v, want positive", got)
	}
}

func TestCurveShape(t *testing.T) {
	// The relative likelihood curve must peak near the analytic maximizer
	// and fall off on both sides (paper Fig. 5).
	nTips := 6
	s := syntheticSet(0.3, nTips, []float64{5.0})
	want := 1.0 // S/(n-1)
	thetas := []float64{0.1, 0.5, want, 2.0, 5.0}
	vals := Curve(s, thetas, device.New(2))
	peak := vals[2]
	for i, v := range vals {
		if i != 2 && v >= peak {
			t.Errorf("curve at theta=%v (%v) not below peak at %v (%v)", thetas[i], v, want, peak)
		}
	}
}

func TestRelLogLikelihoodPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty sample set")
		}
	}()
	s := &SampleSet{NTips: 4, Theta0: 1}
	RelLogLikelihood(s, 1, device.Serial())
}

func TestMaximizeThetaParallelMatchesSerial(t *testing.T) {
	s := syntheticSet(0.6, 8, []float64{1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 1.5})
	a, err := MaximizeTheta(s, MLEConfig{}, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximizeTheta(s, MLEConfig{}, device.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("serial %v != parallel %v", a, b)
	}
}

// algorithm2Theta is the paper's Algorithm 2, the M-step this package ran
// before the exact solve: a central finite-difference gradient ascent on
// log L(θ) with step halving, from the driving value. It is kept
// verbatim, with its former default tuning, as the oracle that
// TestMStepMatchesAlgorithm2Oracle holds MaximizeTheta to.
func algorithm2Theta(s *SampleSet, dev *device.Device) float64 {
	const delta, epsilon, maxIterations = 1e-6, 1e-8, 200
	theta := s.Theta0
	obj := func(t float64) float64 { return RelLogLikelihood(s, t, dev) }

	for iter := 0; iter < maxIterations; iter++ {
		d := delta * theta
		grad := (obj(theta+d) - obj(theta-d)) / (2 * d)
		step := grad
		// Trust region: cap the step at the current theta so one
		// iteration at most doubles the estimate. Without the cap, a
		// driving value far below the maximizer (the Fig. 5 setting,
		// theta0 = 0.01) has an enormous gradient that overshoots onto
		// the flat far slope of the curve, where the raw Algorithm 2
		// crawls; the cap turns the approach into a geometric climb.
		if math.Abs(step) > theta {
			step = math.Copysign(theta, step)
		}
		// Halve the step until it is admissible: positive destination
		// and non-decreasing objective (Algorithm 2's inner loop).
		cur := obj(theta)
		halvings := 0
		for ; halvings < 200; halvings++ {
			next := theta + step
			if next > 0 && obj(next) >= cur {
				break
			}
			step /= 2
		}
		if halvings == 200 {
			return theta // gradient direction yields no improvement
		}
		theta += step
		// Converged once the raw gradient itself would move theta by
		// less than epsilon relative — a clamped or halved step still
		// counts as progress.
		if math.Abs(grad) <= epsilon*theta {
			return theta
		}
	}
	return theta
}

// checkAgainstOracle requires an M-step result to be at least as good as
// Algorithm 2's: log L no lower than the oracle's beyond rounding, and θ̂
// within 1e-6 relative unless log L is strictly higher (the ascent
// stopped short).
func checkAgainstOracle(t *testing.T, label string, theta, oracle, logL, oracleLogL float64) {
	t.Helper()
	t.Logf("%s: theta %.17g, oracle %.17g (rel diff %.2g), log L - oracle's = %.3g", label, theta, oracle, (theta-oracle)/oracle, logL-oracleLogL)
	if logL < oracleLogL-1e-12*math.Max(1, math.Abs(oracleLogL)) {
		t.Errorf("%s: log L(%v) = %v below the oracle's log L(%v) = %v", label, theta, logL, oracle, oracleLogL)
	}
	if math.Abs(theta-oracle) > 1e-6*oracle && !(logL > oracleLogL) {
		t.Errorf("%s: theta %v, oracle %v, and log L not higher (%v vs %v)", label, theta, oracle, logL, oracleLogL)
	}
}

// oracleGMHSets runs GMH on simulated 12×200 and 20×400 alignments at
// driving values 0.05, 0.5 and 5, and on 10×400 data simulated on a
// strongly growing genealogy.
func oracleGMHSets(t *testing.T, dev *device.Device) map[string]*SampleSet {
	t.Helper()
	sets := map[string]*SampleSet{}
	for _, shape := range [][2]int{{12, 200}, {20, 400}} {
		eval, init := engineFixture(t, shape[0], shape[1], uint64(2400+shape[0]), dev)
		for i, theta0 := range []float64{0.05, 0.5, 5} {
			res, err := Run(NewGMH(eval, dev, 8), init, ChainConfig{Theta: theta0, Burnin: 200, Samples: 2000, Seed: uint64(2500 + 10*shape[0] + i)})
			if err != nil {
				t.Fatal(err)
			}
			sets[fmt.Sprintf("gmh %dx%d theta0=%v", shape[0], shape[1], theta0)] = res.Samples
		}
	}
	sets["gmh growth g=6 10x400"] = growthSequenceDraws(t, 6.0, 2601, 200, 2000, dev)
	return sets
}

// TestMStepMatchesAlgorithm2Oracle holds both exact M-steps to the
// paper's Algorithm 2 ascents on every synthetic set of this file and of
// growth_test.go and on GMH sample sets.
func TestMStepMatchesAlgorithm2Oracle(t *testing.T) {
	dev := device.New(2)
	defer dev.Close()
	sets := oracleGMHSets(t, dev)
	for label, s := range map[string]*SampleSet{
		"single sample":   syntheticSet(0.5, 6, []float64{3.7}),
		"far start":       syntheticSet(0.01, 10, []float64{9.0}),
		"grid search":     syntheticSet(0.8, 7, []float64{2.0, 3.5, 5.0, 4.2, 2.8}),
		"stays positive":  syntheticSet(1.0, 4, []float64{1e-6}),
		"curve shape":     syntheticSet(0.3, 6, []float64{5.0}),
		"parallel":        syntheticSet(0.6, 8, []float64{1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 1.5}),
		"growth driving":  growthDrivingSet(),
		"growth constant": growthConstantSet(),
		"growth parallel": growthParallelSet(t),
	} {
		sets[label] = s
	}
	for label, s := range sets {
		got, err := MaximizeTheta(s, MLEConfig{}, dev)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := algorithm2Theta(s, dev)
		checkAgainstOracle(t, label, got, want, RelLogLikelihood(s, got, dev), RelLogLikelihood(s, want, dev))
		if s.Ages == nil {
			continue
		}
		est, err := MaximizeThetaGrowth(s, dev)
		if err != nil {
			t.Fatalf("%s growth: %v", label, err)
		}
		oracle := algorithm2Growth(s, dev)
		logL, oracleLogL := RelLogLikelihoodGrowth(s, est.Theta, est.Growth, dev), RelLogLikelihoodGrowth(s, oracle.Theta, oracle.Growth, dev)
		checkAgainstOracle(t, label+" growth", est.Theta, oracle.Theta, logL, oracleLogL)
		t.Logf("%s growth: g %.17g, oracle %.17g, weight ESS %.1f of %d", label, est.Growth, oracle.Growth, est.WeightESS, len(s.PostBurninAges()))
		if math.Abs(est.Growth-oracle.Growth) > 1e-6*math.Max(1, math.Abs(oracle.Growth)) && !(logL > oracleLogL) {
			t.Errorf("%s: growth %v, oracle %v, and log L not higher (%v vs %v)", label, est.Growth, oracle.Growth, logL, oracleLogL)
		}
	}
}

func TestMStepRejectsEmptySet(t *testing.T) {
	s := &SampleSet{NTips: 4, Theta0: 1}
	if _, err := MaximizeTheta(s, MLEConfig{}, nil); err == nil {
		t.Error("MaximizeTheta accepted an empty sample set")
	}
	if _, err := MaximizeThetaGrowth(s, nil); err == nil {
		t.Error("MaximizeThetaGrowth accepted an empty sample set")
	}
}
