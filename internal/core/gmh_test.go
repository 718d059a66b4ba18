package core

import (
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func TestGMHFailedProposalsZeroOnHealthyRun(t *testing.T) {
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), 1.4, 201)
	res, err := Run(NewGMH(eval, device.Serial(), 4), init, ChainConfig{Theta: 1.4, Burnin: 10, Samples: 100, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedProposals != 0 {
		t.Errorf("FailedProposals = %d on a healthy run, want 0", res.FailedProposals)
	}
}

func TestGMHFailedProposalsCountedUnderPathologicalTheta(t *testing.T) {
	// A driving θ absurdly far below the genealogy's scale makes the
	// conditional prior's killing terms underflow, so resimulations land
	// in numerically infeasible regions. The seed silently discarded
	// these errors (the errs dead-store bug); they must now be counted,
	// while the run itself still completes with the failed candidates at
	// zero weight.
	aln, _, err := seqgen.SimulateData(6, 40, 1.0, 211)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(subst.NewJC69(), aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 212)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewGMH(eval, device.Serial(), 4), init, ChainConfig{Theta: 1e-9, Burnin: 0, Samples: 200, Seed: 213})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedProposals == 0 {
		t.Fatalf("FailedProposals = 0 under theta=1e-9, want > 0 (proposals: %d)", res.Proposals)
	}
	if res.FailedProposals > res.Proposals {
		t.Fatalf("FailedProposals %d exceeds Proposals %d", res.FailedProposals, res.Proposals)
	}
	if res.Samples.Len() != 200 {
		t.Fatalf("run did not complete: %d draws", res.Samples.Len())
	}
}

// TestGMHAnalysisFailureFailsEveryCandidate: at θ = 1e-310 the
// coalescent rates overflow, so the round's shared region analysis fails.
// Every candidate of every round must fail with it — on the wave,
// per-candidate and reference paths alike — the chain must record only its
// initial state, and no proposal stream may be consumed.
func TestGMHAnalysisFailureFailsEveryCandidate(t *testing.T) {
	dev := device.New(2)
	defer dev.Close()
	cfg := ChainConfig{Theta: 1e-310, Burnin: 0, Samples: 40, Seed: 221}
	for _, tc := range []struct {
		name         string
		build        evaluatorBuilder
		perCandidate bool
	}{
		{"wave", felsen.New, false},
		{"per-candidate", felsen.New, true},
		{"reference", felsen.NewReference, false},
	} {
		eval, init := fixtureWith(t, tc.build, 6, 40, 222, dev)
		g := NewGMH(eval, dev, 4)
		g.PerCandidate = tc.perCandidate
		run, err := g.Start(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := mustSnapshot(t, run).Streams
		for !run.Done() {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		after := mustSnapshot(t, run).Streams
		res, err := run.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.Proposals == 0 || res.FailedProposals != res.Proposals {
			t.Errorf("%s: %d of %d proposals failed, want all", tc.name, res.FailedProposals, res.Proposals)
		}
		if res.Accepted != 0 {
			t.Errorf("%s: %d draws moved the chain", tc.name, res.Accepted)
		}
		initAges := init.CoalescentAges()
		for i, ages := range res.Samples.Ages {
			for k := range ages {
				if ages[k] != initAges[k] {
					t.Fatalf("%s: draw %d is not the initial state", tc.name, i)
				}
			}
		}
		if res.Final.String() != init.String() {
			t.Errorf("%s: final state differs from the initial one", tc.name)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("%s: proposal stream %d advanced", tc.name, i)
			}
		}
	}
}
