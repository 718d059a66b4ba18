package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"mpcgs/internal/device"
)

// Compile-time: every step-driven run supports snapshot/restore.
var (
	_ SnapshotStepper = (*mhRun)(nil)
	_ SnapshotStepper = (*gmhRun)(nil)
	_ SnapshotStepper = (*heatedRun)(nil)
	_ SnapshotStepper = (*mcRun)(nil)
)

// resultsIdentical requires two completed runs to be indistinguishable:
// bit-identical traces (stats, ages, log-likelihoods), equal counters and
// the same final genealogy.
func resultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	sameTraces(t, label, want.Samples, got.Samples, 0)
	if got.Accepted != want.Accepted || got.Proposals != want.Proposals ||
		got.FailedProposals != want.FailedProposals ||
		got.Swaps != want.Swaps || got.SwapAttempts != want.SwapAttempts {
		t.Fatalf("%s: counters differ: %+v vs %+v", label, got, want)
	}
	sameInt64s := func(field string, a, b []int64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length differs: %d vs %d", label, field, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] differs: %d vs %d", label, field, i, b[i], a[i])
			}
		}
	}
	sameInt64s("PairSwapAttempts", want.PairSwapAttempts, got.PairSwapAttempts)
	sameInt64s("PairSwaps", want.PairSwaps, got.PairSwaps)
	sameInt64s("EstPairSwapAttempts", want.EstPairSwapAttempts, got.EstPairSwapAttempts)
	sameInt64s("EstPairSwaps", want.EstPairSwaps, got.EstPairSwaps)
	if len(want.Betas) != len(got.Betas) {
		t.Fatalf("%s: ladder size differs: %d vs %d", label, len(got.Betas), len(want.Betas))
	}
	for i := range want.Betas {
		if want.Betas[i] != got.Betas[i] {
			t.Fatalf("%s: ladder beta %d differs bitwise: %v vs %v", label, i, got.Betas[i], want.Betas[i])
		}
	}
	if want.Final.String() != got.Final.String() {
		t.Fatalf("%s: final genealogy differs", label)
	}
	for i := range want.Final.Nodes {
		if want.Final.Nodes[i].Age != got.Final.Nodes[i].Age {
			t.Fatalf("%s: final genealogy node %d age differs bitwise", label, i)
		}
	}
}

// TestKillResumeBitIdentical is the headline acceptance test of the
// checkpoint subsystem at the core layer: for every sampler, a spilling
// run snapshotted at an arbitrary step boundary and restored into a
// freshly started stepper finishes with a trace bit-identical to the
// uninterrupted (in-memory) run's.
func TestKillResumeBitIdentical(t *testing.T) {
	dev := device.New(3)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 80, 901, dev)
	cfg := ChainConfig{Theta: 1.0, Burnin: 25, Samples: 140, Seed: 902}
	dir := t.TempDir()

	samplers := []struct {
		name string
		s    StepSampler
	}{
		{"mh", NewMH(eval)},
		{"gmh", NewGMH(eval, dev, 3)},
		{"heated", NewHeated(eval, dev, 3)},
		{"multichain", NewMultiChain(eval, dev, 2)},
	}
	for _, tc := range samplers {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			want, err := Run(tc.s, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Interrupt at several different boundaries, including step 0
			// (nothing happened yet) and a point past burn-in.
			for _, kill := range []int{0, 1, 17, 60} {
				killCfg := spilling(cfg, dir, fmt.Sprintf("%s-kill%d", tc.name, kill))
				run, err := tc.s.Start(init, killCfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < kill && !run.Done(); i++ {
					if err := run.Step(); err != nil {
						t.Fatal(err)
					}
				}
				snap := mustSnapshot(t, run)
				// The original run is now abandoned; a fresh one restores.
				resumed, err := tc.s.Start(init, killCfg)
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
				resultsIdentical(t, tc.name, want, got)
			}
		})
	}
}

// TestKillResumeSerialEvalMode covers the serial reference mode: the
// restore path re-evaluates with LogLikelihoodSerial instead of a cache
// rebase, and mode mismatches are rejected.
func TestKillResumeSerialEvalMode(t *testing.T) {
	dev := device.Serial()
	eval, init := engineFixture(t, 5, 50, 911, dev)
	refEval, _ := referenceFixture(t, 5, 50, 911, dev)
	cfg := ChainConfig{Theta: 1.0, Burnin: 10, Samples: 60, Seed: 912}

	serial := NewMH(refEval)
	want, err := Run(serial, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = spilling(cfg, t.TempDir(), "serial")
	run, err := serial.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnapshot(t, run)

	// A delta-mode run must refuse a serial-mode snapshot.
	delta, err := NewMH(eval).Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.Restore(snap); err == nil {
		t.Fatal("serial snapshot restored into a delta-mode run")
	}

	resumed, err := serial.Start(init, cfg)
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
	resultsIdentical(t, "mh serial", want, got)
}

// TestRestoreRejectsMismatches: restoring into a run with a different
// configuration fails loudly instead of silently diverging.
func TestRestoreRejectsMismatches(t *testing.T) {
	dev := device.Serial()
	eval, init := engineFixture(t, 6, 60, 921, dev)
	base := ChainConfig{Theta: 1.0, Burnin: 10, Samples: 50, Seed: 922}
	dir := t.TempDir()
	cfg := spilling(base, dir, "gmh")

	gmh3, _ := NewGMH(eval, dev, 3).Start(init, cfg)
	for i := 0; i < 5; i++ {
		if err := gmh3.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnapshot(t, gmh3)

	gmh4, _ := NewGMH(eval, dev, 4).Start(init, cfg)
	if err := gmh4.Restore(snap); err == nil {
		t.Fatal("gmh snapshot with 3 streams restored into a 4-proposal run")
	}
	mh, _ := NewMH(eval).Start(init, cfg)
	if err := mh.Restore(snap); err == nil {
		t.Fatal("gmh snapshot restored into an mh run")
	}
	cfg = spilling(base, dir, "heated")
	h2, _ := NewHeated(eval, dev, 2).Start(init, cfg)
	h3, _ := NewHeated(eval, dev, 3).Start(init, cfg)
	for i := 0; i < 4; i++ {
		if err := h3.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h2.Restore(mustSnapshot(t, h3)); err == nil {
		t.Fatal("3-rung heated snapshot restored into a 2-rung run")
	}
}

// TestEMKillResumeBitIdentical extends the equivalence to the outer EM
// loop: an estimation interrupted at an arbitrary sampler transition —
// including mid-iteration — resumes to the identical trajectory and
// final θ.
func TestEMKillResumeBitIdentical(t *testing.T) {
	dev := device.New(3)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 60, 931, dev)
	cfg := EMConfig{InitialTheta: 1.0, Iterations: 3, Burnin: 20, Samples: 90, Seed: 932}
	dir := t.TempDir()

	for _, tc := range []struct {
		name string
		s    StepSampler
	}{
		{"mh", NewMH(eval)},
		{"gmh", NewGMH(eval, dev, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunEM(tc.s, init, cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			// Kill points chosen to land both mid-iteration and right at an
			// iteration boundary (each pass is Burnin+Samples transitions).
			for _, kill := range []int{0, 7, 110, 115} {
				killCfg := cfg
				killCfg.Trace = &TraceSpec{Path: filepath.Join(dir, fmt.Sprintf("%s-kill%d.trace", tc.name, kill))}
				run, err := StartEM(tc.s, init, killCfg, dev)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < kill && !run.Done(); i++ {
					if err := run.Step(); err != nil {
						t.Fatal(err)
					}
				}
				if run.Done() {
					// The whole estimation fit before this kill point
					// (GMH records several draws per transition); nothing
					// left to interrupt.
					continue
				}
				snap, err := run.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := StartEM(tc.s, init, killCfg, dev)
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
				got, err := resumed.Result()
				if err != nil {
					t.Fatal(err)
				}
				emResultsEqual(t, tc.name, want, got)
			}
		})
	}
}
