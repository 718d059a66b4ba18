package core

// Equivalence of the wave-fused GMH round (the default dispatch: a
// per-round outer-partial lift plus one fused (proposal × pattern-block)
// grid, felsen.Wave) with the per-candidate delta path it replaced
// (GMH.PerCandidate). The contract: same seed → same accept sequence,
// bit-identical statistic and log-likelihood traces, and the same
// FailedProposals count — across worker counts 1/2/8, and across
// kill/resume at multiple round boundaries.

import (
	"fmt"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
)

// waveEquivConfig is long enough that the chain accepts, rejects and
// crosses burn-in many times, so a divergence anywhere in the round
// (weights, index draws, failed-proposal bookkeeping) surfaces in the
// trace comparison.
var waveEquivConfig = ChainConfig{Theta: 1.0, Burnin: 30, Samples: 150, Seed: 912}

func runGMH(t *testing.T, dev *device.Device, init *gtree.Tree, perCandidate bool) *Result {
	t.Helper()
	eval, _ := engineFixture(t, 8, 120, 911, dev)
	g := NewGMH(eval, dev, 4)
	g.PerCandidate = perCandidate
	res, err := Run(g, init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWaveGMHMatchesPerCandidate pins the wave dispatch to the
// per-candidate path on the same device, and pins every configuration to
// a single cross-worker reference: the trace is a function of the seed
// alone, never of the worker count or the dispatch strategy.
func TestWaveGMHMatchesPerCandidate(t *testing.T) {
	_, init := engineFixture(t, 8, 120, 911, device.Serial())
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		dev := device.New(workers)
		wave := runGMH(t, dev, init, false)
		perCand := runGMH(t, dev, init, true)
		dev.Close()
		label := fmt.Sprintf("workers=%d", workers)
		resultsIdentical(t, label+" wave vs per-candidate", perCand, wave)
		if ref == nil {
			ref = wave
			continue
		}
		resultsIdentical(t, label+" vs workers=1 reference", ref, wave)
	}
}

// TestWaveGMHKillResumeBitIdentical interrupts a wave-dispatched run at
// several round boundaries — before anything happened, after one round,
// mid-burn-in and past burn-in — and requires the restored run to finish
// bit-identical to both the uninterrupted wave run and the uninterrupted
// per-candidate run. The snapshot carries no wave state: the lift is
// rebuilt from the restored current tree on the next round's BindRound.
func TestWaveGMHKillResumeBitIdentical(t *testing.T) {
	dev := device.New(3)
	defer dev.Close()
	eval, init := engineFixture(t, 8, 120, 911, dev)

	g := NewGMH(eval, dev, 4)
	want, err := Run(g, init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewGMH(eval, dev, 4)
	oracle.PerCandidate = true
	wantPC, err := Run(oracle, init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "uninterrupted wave vs per-candidate", wantPC, want)

	for _, kill := range []int{0, 1, 17, 60} {
		run, err := g.Start(init, waveEquivConfig)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill && !run.Done(); i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := mustSnapshot(t, run)
		resumed, err := g.Start(init, waveEquivConfig)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(snap); err != nil {
			t.Fatal(err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := resumed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, fmt.Sprintf("wave resumed at step %d", kill), want, got)
	}

	// The cross-dispatch snapshot is also valid: a snapshot taken from a
	// per-candidate run restores into a wave run (and vice versa) because
	// the wave keeps no cross-round state worth carrying.
	run, err := oracle.Start(init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnapshot(t, run)
	resumed, err := g.Start(init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for !resumed.Done() {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "per-candidate snapshot resumed on the wave path", want, got)
}

// TestGMHReferenceMatchesWave pins GMH over a reference evaluator — no
// delta cache, every candidate evaluated from scratch by its proposal
// thread with a nested per-site kernel — to the default wave path: same
// seed, same accept sequence and genealogies, log-likelihoods within the
// reassociation tolerance of the delta≡serial suites. Kill/resume on the
// reference run is bit-identical.
func TestGMHReferenceMatchesWave(t *testing.T) {
	dev := device.New(4)
	defer dev.Close()
	eval, init := engineFixture(t, 8, 120, 911, dev)
	refEval, _ := referenceFixture(t, 8, 120, 911, dev)

	wave, err := Run(NewGMH(eval, dev, 4), init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGMH(refEval, dev, 4)
	want, err := Run(g, init, waveEquivConfig)
	if err != nil {
		t.Fatal(err)
	}
	if want.Accepted != wave.Accepted || want.Proposals != wave.Proposals ||
		want.FailedProposals != wave.FailedProposals {
		t.Fatalf("counters differ: reference %d/%d (%d failed) vs wave %d/%d (%d failed)",
			want.Accepted, want.Proposals, want.FailedProposals,
			wave.Accepted, wave.Proposals, wave.FailedProposals)
	}
	sameTraces(t, "gmh reference vs wave", want.Samples, wave.Samples, 1e-9)

	for _, kill := range []int{0, 1, 17, 60} {
		run, err := g.Start(init, waveEquivConfig)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill && !run.Done(); i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := mustSnapshot(t, run)
		resumed, err := g.Start(init, waveEquivConfig)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(snap); err != nil {
			t.Fatal(err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := resumed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, fmt.Sprintf("reference resumed at step %d", kill), want, got)
	}
}
