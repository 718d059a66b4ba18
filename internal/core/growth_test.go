package core

import (
	"math"
	"testing"

	"mpcgs/internal/coalprior"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/mssim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// growthDrivingSet has arbitrary statistics beside its ages; only the
// ages enter the growth likelihood.
func growthDrivingSet() *SampleSet {
	return &SampleSet{
		NTips:  4,
		Theta0: 1.2,
		Stats:  []float64{1, 2},
		Ages:   [][]float64{{0.1, 0.2, 0.5}, {0.2, 0.3, 0.9}},
		LogLik: []float64{0, 0},
	}
}

// growthConstantSet's statistics are consistent with its ages.
func growthConstantSet() *SampleSet {
	s := &SampleSet{
		NTips:  5,
		Theta0: 0.8,
		Ages: [][]float64{
			{0.05, 0.1, 0.2, 0.4},
			{0.1, 0.2, 0.3, 0.5},
			{0.02, 0.08, 0.15, 0.3},
		},
		LogLik: []float64{0, 0, 0},
	}
	for _, a := range s.Ages {
		s.Stats = append(s.Stats, sumKKTFromAges(s.NTips, a))
	}
	return s
}

// growthParallelSet holds 300 genealogies simulated under growth, enough
// for the M-step's reductions to span several warps.
func growthParallelSet(t *testing.T) *SampleSet {
	ages := simulatedAges(t, 7, 300, 0.9, 2.0, 2701)
	s := &SampleSet{NTips: 7, Theta0: 0.6, Ages: ages, LogLik: make([]float64, len(ages))}
	for _, a := range ages {
		s.Stats = append(s.Stats, sumKKTFromAges(s.NTips, a))
	}
	return s
}

// simulatedAges returns the coalescent ages of reps genealogies of nSam
// tips simulated under (theta, g).
func simulatedAges(t *testing.T, nSam, reps int, theta, g float64, seed uint64) [][]float64 {
	t.Helper()
	src := rng.NewStreamSet(1, seed).Stream(0)
	names := mssim.TipNames(nSam)
	ages := make([][]float64, reps)
	for r := range ages {
		tr, err := mssim.SimulateGrowth(names, theta, g, src)
		if err != nil {
			t.Fatal(err)
		}
		ages[r] = tr.CoalescentAges()
	}
	return ages
}

// algorithm2Growth is the two-parameter M-step this package ran before
// the profile solve: Algorithm 2's ascent with a central finite-difference
// gradient in (θ, g), per-coordinate trust regions (θ may at most double
// per step; g moves at most gStep), and step halving on non-improvement.
// It is kept verbatim, with its former default tuning, as the oracle that
// TestMStepMatchesAlgorithm2Oracle holds MaximizeThetaGrowth to.
func algorithm2Growth(s *SampleSet, dev *device.Device) *GrowthEstimate {
	const delta, epsilon, maxIterations = 1e-6, 1e-8, 200
	theta := s.Theta0
	g := 0.0
	obj := func(th, gr float64) float64 { return RelLogLikelihoodGrowth(s, th, gr, dev) }

	// The growth trust region: |Δg| per iteration, in units of inverse
	// tree height so it is scale-appropriate for the data.
	meanHeight := 0.0
	ages := s.PostBurninAges()
	for _, a := range ages {
		meanHeight += a[len(a)-1]
	}
	meanHeight /= float64(len(ages))
	gStep := 1.0
	if meanHeight > 0 {
		gStep = 2.0 / meanHeight
	}

	for iter := 0; iter < maxIterations; iter++ {
		dTheta := delta * theta
		dG := delta * math.Max(1, math.Abs(g))
		gradT := (obj(theta+dTheta, g) - obj(theta-dTheta, g)) / (2 * dTheta)
		gradG := (obj(theta, g+dG) - obj(theta, g-dG)) / (2 * dG)

		stepT, stepG := gradT, gradG
		if math.Abs(stepT) > theta {
			stepT = math.Copysign(theta, stepT)
		}
		if math.Abs(stepG) > gStep {
			stepG = math.Copysign(gStep, stepG)
		}
		cur := obj(theta, g)
		halvings := 0
		for ; halvings < 200; halvings++ {
			nt, ng := theta+stepT, g+stepG
			if nt > 0 && obj(nt, ng) >= cur {
				break
			}
			stepT /= 2
			stepG /= 2
		}
		if halvings == 200 {
			break
		}
		theta += stepT
		g += stepG
		if math.Abs(gradT) <= epsilon*theta && math.Abs(gradG) <= epsilon*math.Max(1, math.Abs(g)) {
			break
		}
	}
	return &GrowthEstimate{Theta: theta, Growth: g}
}

// jointMLE maximizes the joint log-likelihood Σ_i log P(G_i|θ,g) of fully
// observed genealogies, the estimator that validates the growth prior
// against simulation. At fixed g the maximizing θ is Σ_i I_i(g)/(N(n-1))
// in closed form (I from coalprior.GrowthStats); g comes from the
// M-step's profile search.
func jointMLE(t *testing.T, nTips int, ages [][]float64) *GrowthEstimate {
	t.Helper()
	events := float64(len(ages) * (nTips - 1))
	thetaAt := func(g float64) (theta, sumT float64) {
		for _, a := range ages {
			integral, at := coalprior.GrowthStats(nTips, a, g)
			theta += integral
			sumT += at
		}
		return theta / events, sumT
	}
	height := 0.0
	for _, a := range ages {
		height += a[len(a)-1]
	}
	g, err := maximizeProfile(func(g float64) float64 {
		theta, sumT := thetaAt(g)
		return -events*math.Log(theta) + g*sumT
	}, float64(len(ages))/height)
	if err != nil {
		t.Fatal(err)
	}
	theta, _ := thetaAt(g)
	return &GrowthEstimate{Theta: theta, Growth: g}
}

func TestRelLogLikelihoodGrowthAtDrivingIsZero(t *testing.T) {
	got := RelLogLikelihoodGrowth(growthDrivingSet(), 1.2, 0, device.Serial())
	if math.Abs(got) > 1e-12 {
		t.Errorf("log L(theta0, 0) = %v, want 0", got)
	}
}

func TestRelLogLikelihoodGrowthMatchesConstantAtGZero(t *testing.T) {
	s := growthConstantSet()
	dev := device.Serial()
	for _, theta := range []float64{0.3, 0.8, 2.0} {
		a := RelLogLikelihood(s, theta, dev)
		b := RelLogLikelihoodGrowth(s, theta, 0, dev)
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
			t.Errorf("theta=%v: constant %v != growth(g=0) %v", theta, a, b)
		}
	}
}

func TestJointGenealogyMLERecoversConstantSize(t *testing.T) {
	// Trees simulated at (theta*, g=0): the joint MLE must land near
	// theta* with growth near zero.
	trueTheta := 1.5
	trees, err := mssim.Simulate(mssim.Config{NSam: 8, Reps: 4000, Theta: trueTheta, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	ages := make([][]float64, len(trees))
	for i, tr := range trees {
		ages[i] = tr.CoalescentAges()
	}
	est := jointMLE(t, 8, ages)
	if math.Abs(est.Theta-trueTheta) > 0.08*trueTheta {
		t.Errorf("theta = %v, want %v (±8%%)", est.Theta, trueTheta)
	}
	if math.Abs(est.Growth) > 0.35 {
		t.Errorf("growth = %v, want ~0", est.Growth)
	}
}

func TestJointGenealogyMLERecoversGrowth(t *testing.T) {
	// Trees simulated at (theta*, g*) with strong growth: the joint MLE
	// must recover both parameters.
	trueTheta, trueG := 1.0, 3.0
	est := jointMLE(t, 10, simulatedAges(t, 10, 4000, trueTheta, trueG, 1002))
	if math.Abs(est.Theta-trueTheta) > 0.15*trueTheta {
		t.Errorf("theta = %v, want %v (±15%%)", est.Theta, trueTheta)
	}
	if math.Abs(est.Growth-trueG) > 0.25*trueG {
		t.Errorf("growth = %v, want %v (±25%%)", est.Growth, trueG)
	}
}

func TestJointGenealogyMLEBeatsWrongModel(t *testing.T) {
	// The fitted (theta, g) must score better than the constant-size fit
	// on growth data: a direct check that growth improves the fit when
	// real.
	est := jointMLE(t, 8, simulatedAges(t, 8, 1000, 1.0, 4.0, 1003))
	if est.Growth <= 0.5 {
		t.Fatalf("fitted growth %v on strongly growing data", est.Growth)
	}
}

// TestGrowthWeightESS: the reported reliability of the -growth
// reweighting is the Kish effective sample size of the importance
// weights — n when they are equal, about 1 when one of them dominates.
func TestGrowthWeightESS(t *testing.T) {
	const n = 50
	m, err := newThetaSolver(syntheticSet(1, 5, make([]float64, n)), n, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.weightESS(2); math.Abs(got-n) > 1e-9*n {
		t.Errorf("equal weights: ESS %v, want %d", got, n)
	}
	m.a[7] = 40 // e^40 against e^0 for every other draw
	if got := m.weightESS(2); math.Abs(got-1) > 1e-9 {
		t.Errorf("one dominant weight: ESS %v, want 1", got)
	}
	s := growthConstantSet()
	est, err := MaximizeThetaGrowth(s, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if n := float64(len(s.PostBurninAges())); !(est.WeightESS >= 1 && est.WeightESS <= n) {
		t.Errorf("weight ESS %v outside [1, %v]", est.WeightESS, n)
	}
}

func TestMaximizeThetaGrowthParallelMatchesSerial(t *testing.T) {
	s := growthParallelSet(t)
	a, err := MaximizeThetaGrowth(s, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(8)
	defer dev.Close()
	b, err := MaximizeThetaGrowth(s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("serial %+v != parallel %+v", *a, *b)
	}
}

// growthSequenceDraws simulates 400 bp of sequence for 10 tips on a
// genealogy with growth rate g and returns the draws of a GMH pass driven
// at (θ0, g) = (1, 0).
func growthSequenceDraws(t *testing.T, g float64, seed uint64, burnin, samples int, dev *device.Device) *SampleSet {
	t.Helper()
	tree, err := mssim.SimulateGrowth(mssim.TipNames(10), 1.0, g, seedSource(seed, 40))
	if err != nil {
		t.Fatal(err)
	}
	aln, err := seqgen.Simulate(tree, seqgen.Config{Length: 400, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(NewGMH(eval, dev, 8), init, ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return run.Samples
}

func TestMaximizeThetaGrowthDetectsGrowthFromSequences(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline statistical test")
	}
	// End-to-end: sequences simulated on a strongly growing population
	// vs a constant one. The sampler runs at g=0; the importance-sampled
	// 2-parameter MLE must assign clearly higher growth to the growing
	// dataset.
	dev := device.New(8)
	defer dev.Close()
	fit := func(g float64, seed uint64) *GrowthEstimate {
		est, err := MaximizeThetaGrowth(growthSequenceDraws(t, g, seed, 1500, 15000, dev), dev)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	growing := fit(6.0, 2001)
	constant := fit(0.0, 2002)
	if growing.Growth <= constant.Growth {
		t.Errorf("growth estimate on growing data (%v) not above constant data (%v)",
			growing.Growth, constant.Growth)
	}
	if growing.Growth <= 0 {
		t.Errorf("growth estimate on growing data = %v, want positive", growing.Growth)
	}
}
