package core

import (
	"testing"

	"mpcgs/internal/device"
)

// Compile-time: the schedulable samplers expose the step-driven interface.
var (
	_ StepSampler = (*MH)(nil)
	_ StepSampler = (*GMH)(nil)
	_ StepSampler = (*Heated)(nil)
	_ StepSampler = (*MultiChain)(nil)
)

// emResultsEqual requires two estimations to have identical trajectories:
// same θ path, same recorded draws in the final sample set.
func emResultsEqual(t *testing.T, label string, a, b *EMResult) {
	t.Helper()
	if a.Theta != b.Theta {
		t.Fatalf("%s: final theta %v vs %v", label, a.Theta, b.Theta)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: EM iteration %d differs: %+v vs %+v", label, i, a.History[i], b.History[i])
		}
	}
	sameTraces(t, label, a.LastSet, b.LastSet, 0)
}

// TestInterleavedEMRunsMatchStandalone drives two EMRuns by alternating
// single steps — the batch scheduler's interleaving — and requires each
// trajectory to be bit-identical to its standalone RunEM. This is the
// core-level statement of the batch mode's correctness contract: a run's
// draws do not depend on what else shares the device.
func TestInterleavedEMRunsMatchStandalone(t *testing.T) {
	dev := device.Serial()
	evalA, initA := engineFixture(t, 6, 60, 701, dev)
	evalB, initB := engineFixture(t, 7, 80, 702, dev)
	cfgA := EMConfig{InitialTheta: 1.0, Iterations: 2, Burnin: 30, Samples: 150, Seed: 703}
	cfgB := EMConfig{InitialTheta: 0.8, Iterations: 2, Burnin: 40, Samples: 120, Seed: 704}

	standaloneA, err := RunEM(NewMH(evalA), initA, cfgA, dev)
	if err != nil {
		t.Fatal(err)
	}
	standaloneB, err := RunEM(NewGMH(evalB, dev, 3), initB, cfgB, dev)
	if err != nil {
		t.Fatal(err)
	}

	runA, err := StartEM(NewMH(evalA), initA, cfgA, dev)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := StartEM(NewGMH(evalB, dev, 3), initB, cfgB, dev)
	if err != nil {
		t.Fatal(err)
	}
	for !runA.Done() || !runB.Done() {
		if !runA.Done() {
			if err := runA.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !runB.Done() {
			if err := runB.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	interA, err := runA.Result()
	if err != nil {
		t.Fatal(err)
	}
	interB, err := runB.Result()
	if err != nil {
		t.Fatal(err)
	}
	emResultsEqual(t, "job A (mh)", standaloneA, interA)
	emResultsEqual(t, "job B (gmh)", standaloneB, interB)
}

// TestEMRunErrorIsSticky: a failed run stays failed — Step keeps
// returning the error and Result reports it.
func TestEMRunErrorIsSticky(t *testing.T) {
	dev := device.Serial()
	eval, init := engineFixture(t, 6, 60, 721, dev)
	// A pathological driving θ far below the genealogy's scale makes MH
	// proposals fail (infeasible resimulation regions), which is fatal to
	// an MH run.
	run, err := StartEM(NewMH(eval), init, EMConfig{InitialTheta: 1e-12, Iterations: 1, Burnin: 0, Samples: 50, Seed: 722}, dev)
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for !run.Done() {
		if stepErr = run.Step(); stepErr != nil {
			break
		}
	}
	if stepErr == nil {
		t.Fatal("expected a step error under pathological theta")
	}
	if !run.Done() {
		t.Error("run not done after fatal error")
	}
	if again := run.Step(); again == nil {
		t.Error("Step after failure returned nil, want sticky error")
	}
	if _, err := run.Result(); err == nil {
		t.Error("Result after failure returned nil error")
	}
}
