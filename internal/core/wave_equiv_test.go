package core

// Equivalence of the wave GMH round (the default dispatch: a per-round
// outer-partial lift, felsen.Wave, with each candidate evaluated on its
// proposal thread or in one fused (proposal × pattern-block) grid) with
// the per-candidate delta path it replaced (GMH.PerCandidate). The contract: same seed → same accept sequence,
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

	dir := t.TempDir()
	for _, kill := range []int{0, 1, 17, 60} {
		killCfg := spilling(waveEquivConfig, dir, fmt.Sprintf("kill%d", kill))
		run, err := g.Start(init, killCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill && !run.Done(); i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := mustSnapshot(t, run)
		resumed, err := g.Start(init, killCfg)
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
	crossCfg := spilling(waveEquivConfig, dir, "cross")
	run, err := oracle.Start(init, crossCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnapshot(t, run)
	resumed, err := g.Start(init, crossCfg)
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

	dir := t.TempDir()
	for _, kill := range []int{0, 1, 17, 60} {
		killCfg := spilling(waveEquivConfig, dir, fmt.Sprintf("kill%d", kill))
		run, err := g.Start(init, killCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill && !run.Done(); i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := mustSnapshot(t, run)
		resumed, err := g.Start(init, killCfg)
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

// mixedDispatchConfig runs enough rounds on the 32×2000 data that both
// sides of the in-kernel gate occur many times and the chain accepts
// moves on each.
var mixedDispatchConfig = ChainConfig{Theta: 1.0, Burnin: 40, Samples: 240, Seed: 912}

// stepCountingDispatch drives run to completion and counts its rounds by
// dispatch: evaluated on the proposal threads, or by the fused grid. A
// grid round at more than one worker must show the grid's launch after
// the resimulation launch in the device's counters.
func stepCountingDispatch(t *testing.T, dev *device.Device, run SnapshotStepper) (inKernel, grid int) {
	t.Helper()
	for !run.Done() {
		before, _ := dev.Stats()
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
		after, _ := dev.Stats()
		if run.(*gmhRun).inKernel {
			inKernel++
			continue
		}
		grid++
		if dev.Workers() > 1 && after-before < 2 {
			t.Fatalf("grid round cost %d launches, want the resimulation launch plus the grid's", after-before)
		}
	}
	return inKernel, grid
}

// TestWaveGMHBothDispatchesMatchPerCandidate runs the wave path on data
// whose rounds fall on both sides of the in-kernel gate: with ~1700
// patterns, a candidate whose root path is short (the root case
// included) is evaluated by its proposal thread, a deep one by the fused
// grid after the launch. Every configuration must be bit-identical to
// the per-candidate path on the same device and to the 1-worker run,
// both dispatches must occur at 2 and 8 workers (at 1 worker no
// candidate is worth splitting, so every round runs in-kernel), and a
// run killed mid-chain and resumed must finish bit-identical.
func TestWaveGMHBothDispatchesMatchPerCandidate(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		dev := device.New(workers)
		eval, init := engineFixture(t, 32, 2000, 911, dev)
		oracle := NewGMH(eval, dev, 4)
		oracle.PerCandidate = true
		want, err := Run(oracle, init, mixedDispatchConfig)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGMH(eval, dev, 4)
		run, err := g.Start(init, mixedDispatchConfig)
		if err != nil {
			t.Fatal(err)
		}
		inKernel, grid := stepCountingDispatch(t, dev, run)
		got, err := run.Finish()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d rounds in-kernel, %d on the grid", label, inKernel, grid)
		if workers > 1 && (inKernel == 0 || grid == 0) {
			t.Errorf("%s: %d rounds in-kernel and %d on the grid, want both dispatches", label, inKernel, grid)
		}
		resultsIdentical(t, label+" wave vs per-candidate", want, got)
		if ref == nil {
			ref = got
		} else {
			resultsIdentical(t, label+" vs workers=1 reference", ref, got)
		}

		if workers == 2 {
			// One kill point, mid-burn-in: the restored run rebinds from
			// the restored current tree and must finish bit-identical.
			killCfg := spilling(mixedDispatchConfig, t.TempDir(), "kill")
			run, err := g.Start(init, killCfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				if err := run.Step(); err != nil {
					t.Fatal(err)
				}
			}
			snap := mustSnapshot(t, run)
			resumed, err := g.Start(init, killCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(snap); err != nil {
				t.Fatal(err)
			}
			stepCountingDispatch(t, dev, resumed)
			got, err := resumed.Finish()
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, label+" resumed at step 7", want, got)
		}
		dev.Close()
	}
}

// TestGMHSmallRoundIsOneLaunch pins the cost of a small round: on 12×200
// data no candidate is worth splitting over pattern blocks, so each
// proposal thread evaluates its own candidate and a round is exactly one
// device launch of N threads — no grid, inline or launched, after it.
func TestGMHSmallRoundIsOneLaunch(t *testing.T) {
	const n = 8
	dev := device.New(2)
	defer dev.Close()
	eval, init := engineFixture(t, 12, 200, 911, dev)
	run, err := NewGMH(eval, dev, n).Start(init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; !run.Done(); round++ {
		l0, th0 := dev.Stats()
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
		l1, th1 := dev.Stats()
		if !run.(*gmhRun).inKernel {
			t.Fatalf("round %d: candidates left to the grid, want each evaluated by its proposal thread", round)
		}
		if l1-l0 != 1 || th1-th0 != n {
			t.Fatalf("round %d: %d launches of %d threads, want 1 launch of %d", round, l1-l0, th1-th0, n)
		}
	}
}
