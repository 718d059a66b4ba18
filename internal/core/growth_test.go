package core

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/mssim"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func TestRelLogLikelihoodGrowthAtDrivingIsZero(t *testing.T) {
	s := &SampleSet{
		NTips:  4,
		Theta0: 1.2,
		Stats:  []float64{1, 2},
		Ages:   [][]float64{{0.1, 0.2, 0.5}, {0.2, 0.3, 0.9}},
		LogLik: []float64{0, 0},
	}
	got := RelLogLikelihoodGrowth(s, 1.2, 0, device.Serial())
	if math.Abs(got) > 1e-12 {
		t.Errorf("log L(theta0, 0) = %v, want 0", got)
	}
}

func TestRelLogLikelihoodGrowthMatchesConstantAtGZero(t *testing.T) {
	s := &SampleSet{
		NTips:  5,
		Theta0: 0.8,
		Stats:  []float64{2.2, 3.1, 1.7},
		Ages: [][]float64{
			{0.05, 0.1, 0.2, 0.4},
			{0.1, 0.2, 0.3, 0.5},
			{0.02, 0.08, 0.15, 0.3},
		},
		LogLik: []float64{0, 0, 0},
	}
	// Stats must be consistent with Ages for the comparison to hold.
	for i, a := range s.Ages {
		s.Stats[i] = sumKKTFromAges(s.NTips, a)
	}
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
	est, err := JointGenealogyMLE(8, ages, device.New(8))
	if err != nil {
		t.Fatal(err)
	}
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
	trees, err := mssim.SimulateGrowthReps(mssim.Config{NSam: 10, Reps: 4000, Theta: trueTheta, Seed: 1002}, trueG)
	if err != nil {
		t.Fatal(err)
	}
	ages := make([][]float64, len(trees))
	for i, tr := range trees {
		ages[i] = tr.CoalescentAges()
	}
	est, err := JointGenealogyMLE(10, ages, device.New(8))
	if err != nil {
		t.Fatal(err)
	}
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
	trees, err := mssim.SimulateGrowthReps(mssim.Config{NSam: 8, Reps: 1000, Theta: 1.0, Seed: 1003}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	ages := make([][]float64, len(trees))
	for i, tr := range trees {
		ages[i] = tr.CoalescentAges()
	}
	dev := device.Serial()
	est, err := JointGenealogyMLE(8, ages, dev)
	if err != nil {
		t.Fatal(err)
	}
	if est.Growth <= 0.5 {
		t.Fatalf("fitted growth %v on strongly growing data", est.Growth)
	}
}

func TestMaximizeThetaGrowthDetectsGrowthFromSequences(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline statistical test")
	}
	// End-to-end: sequences simulated on a strongly growing population
	// vs a constant one. The sampler runs at g=0; the importance-sampled
	// 2-parameter MLE must assign clearly higher growth to the growing
	// dataset.
	fit := func(g float64, seed uint64) *GrowthEstimate {
		names := mssim.TipNames(10)
		src := seedSource(seed, 40)
		tree, err := mssim.SimulateGrowth(names, 1.0, g, src)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := seqgen.Simulate(tree, seqgen.Config{Length: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		dev := device.New(8)
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
		run, err := Run(NewGMH(eval, dev, 8), init, ChainConfig{
			Theta: 1.0, Burnin: 1500, Samples: 15000, Seed: seed + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		est, err := MaximizeThetaGrowth(run.Samples, MLEConfig{}, dev)
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

func TestJointGenealogyMLEErrors(t *testing.T) {
	if _, err := JointGenealogyMLE(4, nil, nil); err == nil {
		t.Error("empty genealogy set accepted")
	}
}
