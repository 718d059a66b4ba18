package core

// Cross-commit trajectory pins. The equivalence suites compare two paths
// of the same build, so a change that moved both paths alike would pass
// them; these tests pin each sampler's output at fixed seeds to values
// recorded once, so any change to stream use, proposal construction,
// index-chain draws or recording shows as a bit change.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// drawPin is the fingerprint of a completed run: FNV-1a hashes of the
// statistic, log-likelihood and flattened age traces and of the final
// genealogy's Newick, plus the move counters.
type drawPin struct {
	stats, logLik, ages, final uint64
	accepted, failed           int
}

func pinOf(res *Result) drawPin {
	var ages []float64
	for _, a := range res.Samples.Ages {
		ages = append(ages, a...)
	}
	h := fnv.New64a()
	h.Write([]byte(res.Final.String()))
	return drawPin{
		stats:    floatsHash(res.Samples.Stats),
		logLik:   floatsHash(res.Samples.LogLik),
		ages:     floatsHash(ages),
		final:    h.Sum64(),
		accepted: res.Accepted,
		failed:   res.FailedProposals,
	}
}

func checkPin(t *testing.T, label string, res *Result, want drawPin) {
	t.Helper()
	if got := pinOf(res); got != want {
		t.Errorf("%s: draws %#v, want %#v", label, got, want)
	}
}

// pinnedAlignmentEval simulates nSeq×seqLen data and returns an
// evaluator built by build on dev over model and the data-derived starting tree.
func pinnedAlignmentEval(t *testing.T, build evaluatorBuilder, model func([4]float64) subst.Model, nSeq, seqLen int, seed uint64, dev *device.Device) (*felsen.Evaluator, *gtree.Tree) {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := build(model(aln.BaseFreqs()), aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return eval, init
}

func f81Model(t *testing.T) func([4]float64) subst.Model {
	return func(freqs [4]float64) subst.Model {
		m, err := subst.NewF81(freqs, true)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

func jc69Model([4]float64) subst.Model { return subst.NewJC69() }

// TestGMHPinnedDraws pins GMH on the wave, per-candidate and reference
// paths at 1 and 2 workers, on a healthy 12×200 chain and on the
// pathological-θ set where resimulations fail and FailedProposals counts.
func TestGMHPinnedDraws(t *testing.T) {
	healthy := drawPin{0xcbd70d7e82564c4a, 0x89a3804375def6e3, 0x97090aefa090b4af, 0x86640e0b37d89cd7, 81, 0}
	// The reference evaluator sums each site's likelihood in a different
	// order, so only its log-likelihood trace differs from the delta paths'.
	reference := healthy
	reference.logLik = 0x1f36112a5ddb2045
	// Every proposal fails at θ=1e-9: the chain holds its initial state.
	failing := drawPin{0x2cbd2a0c7dbd40e5, 0xd208cb937b62e185, 0xad6a002fd5e731f5, 0xcad2f733c66de566, 0, 200}
	for _, workers := range []int{1, 2} {
		dev := device.New(workers)
		for _, tc := range []struct {
			name         string
			build        evaluatorBuilder
			perCandidate bool
			want         drawPin
		}{
			{"wave", felsen.New, false, healthy},
			{"per-candidate", felsen.New, true, healthy},
			{"reference", felsen.NewReference, false, reference},
		} {
			eval, init := pinnedAlignmentEval(t, tc.build, f81Model(t), 12, 200, 2101, dev)
			g := NewGMH(eval, dev, 8)
			g.PerCandidate = tc.perCandidate
			res, err := Run(g, init, ChainConfig{Theta: 0.5, Burnin: 40, Samples: 400, Seed: 2103})
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, fmt.Sprintf("workers=%d %s", workers, tc.name), res, tc.want)
		}
		for _, perCandidate := range []bool{false, true} {
			eval, init := pinnedAlignmentEval(t, felsen.New, jc69Model, 6, 40, 211, dev)
			g := NewGMH(eval, dev, 4)
			g.PerCandidate = perCandidate
			res, err := Run(g, init, ChainConfig{Theta: 1e-9, Burnin: 0, Samples: 200, Seed: 213})
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, fmt.Sprintf("workers=%d theta=1e-9 per-candidate=%v", workers, perCandidate), res, failing)
		}
		dev.Close()
	}
}

// TestMHPinnedDraws pins the single-proposal Metropolis-Hastings chain.
func TestMHPinnedDraws(t *testing.T) {
	eval, init := engineFixture(t, 8, 120, 2111, device.Serial())
	res, err := Run(NewMH(eval), init, ChainConfig{Theta: 1.0, Burnin: 100, Samples: 600, Seed: 2113})
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "mh", res, drawPin{0x92469c66159b2fc5, 0xf724d5c6dd67e862, 0x7bb7de76ba700625, 0xdcf5cb58c6782de9, 36, 0})
}

// TestHeatedPinnedDraws pins a 4-chain MC³ ladder with adaptive
// temperatures, at 1 and 2 workers.
func TestHeatedPinnedDraws(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dev := device.New(workers)
		eval, init := engineFixture(t, 6, 80, 2121, dev)
		h := NewHeated(eval, dev, 4)
		h.Adapt = true
		h.MaxTemp = 32
		h.SwapWindow = 8
		res, err := Run(h, init, ChainConfig{Theta: 1.0, Burnin: 60, Samples: 240, Seed: 2123})
		dev.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("heated workers=%d", workers), res, drawPin{0x41c1285477bcfcc, 0x1de18412b578a913, 0xb0808de17329b17e, 0xeb02ccf34f1056d5, 9, 0})
	}
}

// TestMultiChainPinnedDraws pins the independent-chains baseline — the
// pooled draws of a 3-chain ensemble and an EM estimate over it — at 1
// and 2 workers.
func TestMultiChainPinnedDraws(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dev := device.New(workers)
		eval, init := engineFixture(t, 7, 100, 2131, dev)
		res, err := Run(NewMultiChain(eval, dev, 3), init, ChainConfig{Theta: 1.0, Burnin: 50, Samples: 400, Seed: 2133})
		if err != nil {
			dev.Close()
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("multichain workers=%d", workers), res, drawPin{0xbe82794721421094, 0x7ec848da73edcd94, 0xbd234fb33c5c1c94, 0xe45f126e0d27c95d, 39, 0})
		em, err := RunEM(NewMultiChain(eval, dev, 3), init, EMConfig{InitialTheta: 0.5, Iterations: 3, Burnin: 50, Samples: 400, Seed: 2135}, dev)
		dev.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(em.Theta); got != 0x3ffb5aaae0490e51 {
			t.Errorf("multichain workers=%d: EM theta bits %#x, want 0x3ffb5aaae0490e51", workers, got)
		}
	}
}
