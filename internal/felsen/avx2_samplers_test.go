package felsen_test

// Whole-sampler bit-identity of the AVX2 pattern kernels: the GMH
// sampler under the wave and the per-candidate dispatch, and the MH
// sampler on the delta path, must record bit-identical traces with the
// scalar kernels and with the AVX2 kernels, at every worker count — and
// MH must match the reference evaluator's per-site path as it does in
// core's delta ≡ serial suite.

import (
	"fmt"
	"math"
	"testing"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func sameResults(t *testing.T, label string, want, got *core.Result, tol float64) {
	t.Helper()
	if got.Accepted != want.Accepted || got.Proposals != want.Proposals || got.FailedProposals != want.FailedProposals {
		t.Fatalf("%s: counters differ: accepted %d/%d proposals %d/%d failed %d/%d", label,
			got.Accepted, want.Accepted, got.Proposals, want.Proposals, got.FailedProposals, want.FailedProposals)
	}
	a, b := want.Samples, got.Samples
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(b.Stats), len(a.Stats))
	}
	for i := range a.Stats {
		if math.Float64bits(a.Stats[i]) != math.Float64bits(b.Stats[i]) {
			t.Fatalf("%s: draw %d statistic %v vs %v", label, i, b.Stats[i], a.Stats[i])
		}
		if d := math.Abs(a.LogLik[i] - b.LogLik[i]); d > tol || (tol == 0 && math.Float64bits(a.LogLik[i]) != math.Float64bits(b.LogLik[i])) {
			t.Fatalf("%s: draw %d log-likelihood %v vs %v", label, i, b.LogLik[i], a.LogLik[i])
		}
		for k := range a.Ages[i] {
			if math.Float64bits(a.Ages[i][k]) != math.Float64bits(b.Ages[i][k]) {
				t.Fatalf("%s: draw %d age %d differs", label, i, k)
			}
		}
	}
}

func TestAVX2WaveGMHMatchesPerCandidate(t *testing.T) {
	aln, _, err := seqgen.SimulateData(12, 600, 1.0, 911)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	init, err := core.InitialTree(aln, 1.0, 912)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ChainConfig{Theta: 1.0, Burnin: 20, Samples: 80, Seed: 913}
	run := func(t *testing.T, s core.StepSampler) *core.Result {
		t.Helper()
		res, err := core.Run(s, init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, err := felsen.NewReference(model, aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	mhRef := run(t, core.NewMH(ref))
	var gmhWant, mhWant *core.Result
	felsen.ForEachKernel(t, func(t *testing.T) {
		for _, workers := range []int{1, 2} {
			dev := device.New(workers)
			eval, err := felsen.New(model, aln, dev)
			if err != nil {
				t.Fatal(err)
			}
			for _, perCandidate := range []bool{false, true} {
				g := core.NewGMH(eval, dev, 4)
				g.PerCandidate = perCandidate
				res := run(t, g)
				if gmhWant == nil {
					gmhWant = res
				}
				sameResults(t, fmt.Sprintf("GMH workers=%d perCandidate=%v", workers, perCandidate), gmhWant, res, 0)
			}
			mh := run(t, core.NewMH(eval))
			if mhWant == nil {
				mhWant = mh
			}
			sameResults(t, fmt.Sprintf("MH workers=%d", workers), mhWant, mh, 0)
			sameResults(t, fmt.Sprintf("MH workers=%d vs reference evaluator", workers), mhRef, mh, 1e-9)
			dev.Close()
		}
	})
}
