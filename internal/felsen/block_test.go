package felsen

// Determinism and equivalence of the pattern-block delta kernel across
// block sizes and devices. The contract under test (delta.go): block
// boundaries are a pure function of (nPatterns, blockSize), the per-block
// partials reduce in block order, and blocks write disjoint pattern
// ranges — so for a fixed block size the result is bit-identical across
// repeat runs, worker counts, and the inline-vs-pooled execution choice,
// while any block size agrees with the serial evaluation to roundoff.

import (
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// blockSizesFor returns the block widths the equivalence tests sweep:
// one pattern per block (maximal partitioning), a cache-line of
// float64s, 13 (block starts at every offset mod 4, and a 1-pattern tail
// after the vector kernels' 4-pattern groups), the default, and wider
// than the whole pattern axis (degenerates to one block).
func blockSizesFor(nPatterns int) []int {
	return []int{1, 8, 13, DefaultBlockSize, nPatterns + 100}
}

// blockFixture builds an alignment large enough that Rebase exceeds the
// inline-execution threshold (so pooled devices actually take the
// parallel branch), an initial genealogy, and a set of proposals.
func blockFixture(t *testing.T) (*subst.F81, *gtree.Tree, []*gtree.Tree, func(dev *device.Device) *Evaluator) {
	t.Helper()
	aln, _, err := seqgen.SimulateData(12, 2000, 1.0, 424)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewMT19937(17)
	tree, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
	if err != nil {
		t.Fatal(err)
	}
	props := make([]*gtree.Tree, 0, 6)
	for len(props) < 6 {
		p := tree.Clone()
		target := resim.PickTarget(p, src)
		if resim.Resimulate(p, target, 1.0, src) == nil {
			props = append(props, p)
		}
	}
	mk := func(dev *device.Device) *Evaluator {
		eval, err := New(model, aln, dev)
		if err != nil {
			t.Fatal(err)
		}
		return eval
	}
	return model, tree, props, mk
}

func TestBlockSizesAgreeWithSerialEval(t *testing.T) {
	// Every block size evaluates to the serial reference within roundoff,
	// on both the read-only (GMH) and staged paths.
	_, tree, props, mk := blockFixture(t)
	ref := mk(device.Serial())
	want := make([]float64, len(props))
	for i, p := range props {
		want[i] = ref.LogLikelihoodSerial(p)
	}
	for _, bs := range blockSizesFor(ref.NPatterns()) {
		eval := mk(device.Serial())
		eval.SetBlockSize(bs)
		c := eval.NewDeltaCache()
		eval.Rebase(c, tree)
		for i, p := range props {
			if got := eval.LogLikelihoodDelta(c, p); !closeRel(got, want[i]) {
				t.Errorf("blockSize=%d proposal %d: delta %v != serial %v", bs, i, got, want[i])
			}
			ev := eval.StageDelta(c, p)
			if !closeRel(ev.LogLik(), want[i]) {
				t.Errorf("blockSize=%d proposal %d: staged %v != serial %v", bs, i, ev.LogLik(), want[i])
			}
			ev.Discard()
		}
	}
}

func TestBlockKernelBitStableAcrossRunsAndWorkers(t *testing.T) {
	// For one block size, repeat runs must agree bit-for-bit — across
	// fresh evaluators, worker counts (serial, 2, 8), and hence across
	// the inline and pool-parallel execution branches.
	_, tree, props, mk := blockFixture(t)
	nPat := mk(device.Serial()).NPatterns()
	for _, bs := range blockSizesFor(nPat) {
		devs := []func() *device.Device{
			device.Serial,
			func() *device.Device { return device.New(2) },
			func() *device.Device { return device.New(8) },
		}
		var want []float64
		var wantRebase float64
		for di, mkDev := range devs {
			for rep := 0; rep < 2; rep++ {
				eval := mk(mkDev())
				eval.SetBlockSize(bs)
				c := eval.NewDeltaCache()
				rb := eval.Rebase(c, tree)
				got := make([]float64, 0, 2*len(props))
				for _, p := range props {
					got = append(got, eval.LogLikelihoodDelta(c, p))
				}
				// Staged path: same bits as read-only, and Commit leaves the
				// cache exactly where RebaseTo would.
				for _, p := range props {
					ev := eval.StageDelta(c, p)
					got = append(got, ev.LogLik())
					ev.Discard()
				}
				if di == 0 && rep == 0 {
					want, wantRebase = got, rb
					continue
				}
				if rb != wantRebase {
					t.Fatalf("blockSize=%d dev %d rep %d: Rebase %v != first run %v (must be bit-identical)",
						bs, di, rep, rb, wantRebase)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("blockSize=%d dev %d rep %d eval %d: %v != first run %v (must be bit-identical)",
							bs, di, rep, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestBlockSizeStagedCommitMatchesRebaseTo(t *testing.T) {
	// Accepting through Commit and accepting through RebaseTo must leave
	// bit-identical caches at every block size: subsequent evaluations
	// from both agree exactly.
	_, tree, props, mk := blockFixture(t)
	nPat := mk(device.Serial()).NPatterns()
	for _, bs := range blockSizesFor(nPat) {
		a := mk(device.Serial())
		a.SetBlockSize(bs)
		b := mk(device.New(4))
		b.SetBlockSize(bs)
		ca, cb := a.NewDeltaCache(), b.NewDeltaCache()
		a.Rebase(ca, tree)
		b.Rebase(cb, tree)
		ev := a.StageDelta(ca, props[0])
		staged := ev.LogLik()
		ev.Commit()
		if rb := b.RebaseTo(cb, props[0]); rb != staged {
			t.Fatalf("blockSize=%d: RebaseTo %v != committed stage %v (must be bit-identical)", bs, rb, staged)
		}
		for _, p := range props[1:] {
			ga, gb := a.LogLikelihoodDelta(ca, p), b.LogLikelihoodDelta(cb, p)
			if ga != gb {
				t.Fatalf("blockSize=%d: post-commit delta %v != post-rebase delta %v (must be bit-identical)", bs, ga, gb)
			}
		}
	}
}

func TestSingleBlockMatchesUnblockedSum(t *testing.T) {
	// A block size covering the whole pattern axis must reproduce the
	// pre-block kernel's summation exactly: one block, one partial, no
	// reassociation. Guard: any two block sizes that both yield a single
	// block give identical bits.
	_, tree, props, mk := blockFixture(t)
	nPat := mk(device.Serial()).NPatterns()
	a := mk(device.Serial())
	a.SetBlockSize(nPat)
	b := mk(device.Serial())
	b.SetBlockSize(nPat * 3)
	ca, cb := a.NewDeltaCache(), b.NewDeltaCache()
	if ra, rb := a.Rebase(ca, tree), b.Rebase(cb, tree); ra != rb {
		t.Fatalf("single-block Rebase differs across widths: %v != %v", ra, rb)
	}
	for i, p := range props {
		if ga, gb := a.LogLikelihoodDelta(ca, p), b.LogLikelihoodDelta(cb, p); ga != gb {
			t.Fatalf("proposal %d: single-block delta differs across widths: %v != %v", i, ga, gb)
		}
	}
}

func TestSetBlockSizeRejectsNonPositive(t *testing.T) {
	_, _, _, mk := blockFixture(t)
	eval := mk(device.Serial())
	defer func() {
		if recover() == nil {
			t.Error("SetBlockSize(0) did not panic")
		}
	}()
	eval.SetBlockSize(0)
}
