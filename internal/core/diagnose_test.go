package core

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func diagnoseRun(t *testing.T, burnin, samples int, seeds ...uint64) []*SampleSet {
	t.Helper()
	aln, _, err := seqgen.SimulateData(8, 150, 1.0, 777)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	var sets []*SampleSet
	for _, seed := range seeds {
		init, err := InitialTree(aln, 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(NewMH(eval), init, ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, res.Samples)
	}
	return sets
}

func TestDiagnoseConvergedChain(t *testing.T) {
	if testing.Short() {
		t.Skip("chain diagnostics")
	}
	set := diagnoseRun(t, 2000, 6000, 31)[0]
	d := Diagnose(set)
	if d.ESS <= 0 || d.ESS > float64(set.Len()) {
		t.Errorf("ESS = %v out of range", d.ESS)
	}
	if math.IsNaN(d.GewekeZ) {
		t.Error("GewekeZ is NaN on a long trace")
	}
	if !d.BurninSufficient {
		t.Errorf("generous burn-in flagged insufficient: %+v", d)
	}
}

func TestDiagnoseColdStartFlagsShortBurnin(t *testing.T) {
	if testing.Short() {
		t.Skip("chain diagnostics")
	}
	// Zero burn-in from a UPGMA cold start: the detector should suggest
	// discarding a prefix.
	set := diagnoseRun(t, 0, 6000, 33)[0]
	d := Diagnose(set)
	if d.SuggestedBurnin <= 0 {
		t.Errorf("suggested burn-in = %d on a cold-start trace", d.SuggestedBurnin)
	}
}

func TestRHatAcrossIndependentChains(t *testing.T) {
	if testing.Short() {
		t.Skip("chain diagnostics")
	}
	sets := diagnoseRun(t, 1500, 4000, 41, 42, 43)
	r := RHat(sets)
	if math.IsNaN(r) {
		t.Fatal("RHat is NaN")
	}
	// Well-burned-in chains on the same posterior: R-hat near 1. MCMC
	// autocorrelation inflates it somewhat; 1.5 is a generous bound that
	// still catches non-mixing (which gives >> 2 here).
	if r > 1.5 {
		t.Errorf("R-hat = %v, chains appear unmixed", r)
	}
}

func TestRHatDegenerate(t *testing.T) {
	if !math.IsNaN(RHat(nil)) {
		t.Error("RHat(nil) should be NaN")
	}
	s := &SampleSet{LogLik: []float64{1, 2, 3}}
	if !math.IsNaN(RHat([]*SampleSet{s})) {
		t.Error("single chain should be NaN")
	}
}
