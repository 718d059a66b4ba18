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
