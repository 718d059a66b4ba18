package core

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// engineFixture builds a real-data evaluator and starting tree for the
// delta-vs-serial equivalence tests.
func engineFixture(t *testing.T, nSeq, seqLen int, seed uint64, dev *device.Device) (*felsen.Evaluator, *gtree.Tree) {
	t.Helper()
	return fixtureWith(t, felsen.New, nSeq, seqLen, seed, dev)
}

// referenceFixture is engineFixture over a reference evaluator: the same
// data and starting tree, evaluated in the LAMARC reference mode.
func referenceFixture(t *testing.T, nSeq, seqLen int, seed uint64, dev *device.Device) (*felsen.Evaluator, *gtree.Tree) {
	t.Helper()
	return fixtureWith(t, felsen.NewReference, nSeq, seqLen, seed, dev)
}

func fixtureWith(t *testing.T, build evaluatorBuilder, nSeq, seqLen int, seed uint64, dev *device.Device) (*felsen.Evaluator, *gtree.Tree) {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := build(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return eval, init
}

// evaluatorBuilder is the signature of felsen.New and felsen.NewReference.
type evaluatorBuilder func(subst.Model, *phylip.Alignment, *device.Device) (*felsen.Evaluator, error)

// sameTraces requires two runs to have made the identical accept/reject
// decisions (the Stats traces are bitwise equal only if every draw's
// genealogy matches) and recorded log-likelihoods within tol.
func sameTraces(t *testing.T, label string, a, b *SampleSet, tol float64) {
	t.Helper()
	if len(a.Stats) != len(b.Stats) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.Stats), len(b.Stats))
	}
	for i := range a.Stats {
		if a.Stats[i] != b.Stats[i] {
			t.Fatalf("%s: draw %d genealogy differs (stat %v vs %v): accept/reject sequence diverged",
				label, i, a.Stats[i], b.Stats[i])
		}
		if math.Abs(a.LogLik[i]-b.LogLik[i]) > tol {
			t.Fatalf("%s: draw %d log-likelihood %v vs %v exceeds %v",
				label, i, a.LogLik[i], b.LogLik[i], tol)
		}
		for k := range a.Ages[i] {
			if a.Ages[i][k] != b.Ages[i][k] {
				t.Fatalf("%s: draw %d age %d differs", label, i, k)
			}
		}
	}
}

// TestMHDeltaMatchesSerialPath pins the delta-evaluated MH chain to the
// serial reference path it replaced: same seed, same accept/reject
// sequence, same recorded genealogies, log-likelihoods within 1e-9.
func TestMHDeltaMatchesSerialPath(t *testing.T) {
	eval, init := engineFixture(t, 7, 120, 601, device.Serial())
	cfg := ChainConfig{Theta: 1.0, Burnin: 100, Samples: 500, Seed: 602}
	delta, err := Run(NewMH(eval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEval, _ := referenceFixture(t, 7, 120, 601, device.Serial())
	ref, err := Run(NewMH(refEval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Accepted != ref.Accepted || delta.Proposals != ref.Proposals {
		t.Fatalf("accept counts differ: delta %d/%d vs serial %d/%d",
			delta.Accepted, delta.Proposals, ref.Accepted, ref.Proposals)
	}
	sameTraces(t, "mh", delta.Samples, ref.Samples, 1e-9)
}

// TestHeatedDeltaMatchesSerialPath pins the delta-evaluated MC³ ladder,
// running on the persistent device pool, to its serial reference: the
// within-chain accept/reject sequences, the swap sequence and the cold
// trace must all agree. Run under -race in CI, this is also the data-race
// check over the ladder's per-rung states on the shared pool.
func TestHeatedDeltaMatchesSerialPath(t *testing.T) {
	dev := device.New(4)
	defer dev.Close()
	eval, init := engineFixture(t, 7, 120, 611, dev)
	refEval, _ := referenceFixture(t, 7, 120, 611, dev)
	cfg := ChainConfig{Theta: 1.0, Burnin: 100, Samples: 400, Seed: 612}
	mk := func(eval *felsen.Evaluator) *Result {
		res, err := Run(NewHeated(eval, dev, 4), init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	delta, ref := mk(eval), mk(refEval)
	if delta.Accepted != ref.Accepted {
		t.Fatalf("cold-chain accepts differ: delta %d vs serial %d", delta.Accepted, ref.Accepted)
	}
	if delta.Swaps != ref.Swaps || delta.SwapAttempts != ref.SwapAttempts {
		t.Fatalf("swap sequence differs: delta %d/%d vs serial %d/%d",
			delta.Swaps, delta.SwapAttempts, ref.Swaps, ref.SwapAttempts)
	}
	sameTraces(t, "heated", delta.Samples, ref.Samples, 1e-9)
}

// TestBayesianDeltaMatchesSerialPath pins the joint (G, θ) sampler: the
// genealogy accept/reject sequence and the θ trace (which feeds back into
// the genealogy moves through the driving value) must match the serial
// reference exactly.
func TestBayesianDeltaMatchesSerialPath(t *testing.T) {
	eval, init := engineFixture(t, 7, 120, 621, device.Serial())
	refEval, _ := referenceFixture(t, 7, 120, 621, device.Serial())
	cfg := ChainConfig{Theta: 1.0, Burnin: 100, Samples: 400, Seed: 622}
	mk := func(eval *felsen.Evaluator) *BayesResult {
		res, err := NewBayesian(eval).Run(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	delta, ref := mk(eval), mk(refEval)
	if delta.TreeAccepted != ref.TreeAccepted || delta.ThetaAccepted != ref.ThetaAccepted {
		t.Fatalf("move counts differ: tree %d vs %d, theta %d vs %d",
			delta.TreeAccepted, ref.TreeAccepted, delta.ThetaAccepted, ref.ThetaAccepted)
	}
	for i := range delta.Thetas {
		if delta.Thetas[i] != ref.Thetas[i] {
			t.Fatalf("theta trace diverged at draw %d: %v vs %v", i, delta.Thetas[i], ref.Thetas[i])
		}
	}
	sameTraces(t, "bayes", delta.Samples, ref.Samples, 1e-9)
}

// TestMultiChainDeltaMatchesSerialPath: the pooled independent chains must
// make the same decisions under both evaluation modes.
func TestMultiChainDeltaMatchesSerialPath(t *testing.T) {
	dev := device.New(4)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 80, 631, dev)
	refEval, _ := referenceFixture(t, 6, 80, 631, dev)
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 200, Seed: 632}
	mk := func(eval *felsen.Evaluator) *Result {
		res, err := Run(NewMultiChain(eval, dev, 4), init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	delta, ref := mk(eval), mk(refEval)
	if delta.Accepted != ref.Accepted {
		t.Fatalf("pooled accepts differ: delta %d vs serial %d", delta.Accepted, ref.Accepted)
	}
	sameTraces(t, "multichain", delta.Samples, ref.Samples, 1e-9)
}

// TestMHRecordingNoAliasing guards the recording-aliasing fix: every
// recorded age vector must have its own backing storage. The pre-engine
// sampler appended the same slice for consecutive rejected steps, so
// mutating one recorded draw silently rewrote others.
func TestMHRecordingNoAliasing(t *testing.T) {
	eval, init := engineFixture(t, 6, 80, 641, device.Serial())
	res, err := Run(NewMH(eval), init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: 300, Seed: 642})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted == res.Proposals {
		t.Fatal("no rejected steps: aliasing regression not exercised")
	}
	ages := res.Samples.Ages
	for i := 1; i < len(ages); i++ {
		if &ages[i][0] == &ages[i-1][0] {
			t.Fatalf("draws %d and %d share one backing array", i-1, i)
		}
	}
	// Mutating one draw must not leak into any other.
	orig := ages[1][0]
	ages[0][0] = math.Inf(1)
	if ages[1][0] != orig {
		t.Fatal("mutating draw 0 changed draw 1")
	}
}

// TestHeatedDeltaCachePerRungAfterSwaps: after a run with many accepted
// swaps, the cold chain's recorded log-likelihoods must still agree with
// a from-scratch serial evaluation of its recorded states — i.e. swapping
// whole rung states kept every cache consistent with its tree.
func TestHeatedDeltaCachePerRungAfterSwaps(t *testing.T) {
	dev := device.New(2)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 60, 651, dev)
	h := NewHeated(eval, dev, 3)
	res, err := Run(h, init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: 300, Seed: 652})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Skip("no swaps accepted: cache-consistency-after-swap not exercised")
	}
	// The final state is the cold chain's tree; its recorded likelihood
	// must match a full evaluation.
	got := res.Samples.LogLik[len(res.Samples.LogLik)-1]
	want := eval.LogLikelihoodSerial(res.Final)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("cold-chain final log-likelihood %v, serial re-evaluation %v", got, want)
	}
}

// BenchmarkHeatedStep measures the per-step cost of one MC³ ladder pass,
// delta-evaluated vs the serial reference path — the per-step advantage
// the engine port buys every long-chain workload.
func BenchmarkHeatedStep(b *testing.B) {
	aln, _, err := seqgen.SimulateData(12, 200, 1.0, 20160401)
	if err != nil {
		b.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		build evaluatorBuilder
	}{{"delta", felsen.New}, {"serial", felsen.NewReference}} {
		b.Run(mode.name, func(b *testing.B) {
			dev := device.New(4)
			defer dev.Close()
			eval, err := mode.build(model, aln, dev)
			if err != nil {
				b.Fatal(err)
			}
			init, err := InitialTree(aln, 1.0, 7)
			if err != nil {
				b.Fatal(err)
			}
			h := NewHeated(eval, dev, 4)
			b.ResetTimer()
			if _, err := Run(h, init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: b.N, Seed: 7}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMHStep is the same comparison for the single-chain sampler:
// the delta step must cost a small fraction of the serial step.
func BenchmarkMHStep(b *testing.B) {
	aln, _, err := seqgen.SimulateData(12, 200, 1.0, 20160401)
	if err != nil {
		b.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		build evaluatorBuilder
	}{{"delta", felsen.New}, {"serial", felsen.NewReference}} {
		b.Run(mode.name, func(b *testing.B) {
			eval, err := mode.build(model, aln, device.Serial())
			if err != nil {
				b.Fatal(err)
			}
			init, err := InitialTree(aln, 1.0, 7)
			if err != nil {
				b.Fatal(err)
			}
			m := NewMH(eval)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(m, init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: b.N, Seed: 7}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
