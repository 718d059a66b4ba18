package felsen

// Equivalence and determinism of the wave-fused proposal evaluation
// (wave.go). The contract under test: for any round (a base tree, a
// target φ, and candidates produced by resimulating φ on copies of the
// base), Wave.Eval returns for every candidate the exact bits
// LogLikelihoodDelta returns — across block sizes, worker counts, repeat
// runs, nil (skipped) slots, the root-adjacent case, and across rounds as
// the cache is rebased onto accepted candidates.

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// waveFixture builds the block fixture's alignment and base genealogy
// plus one shared resimulation target and six candidates that all
// resimulate that target — the structure of one GMH round.
func waveFixture(t *testing.T, phiPick func(*gtree.Tree) int) (*gtree.Tree, int, []*gtree.Tree, func(dev *device.Device) *Evaluator) {
	t.Helper()
	scratch := resim.NewScratch()
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
	phi := phiPick(tree)
	props := make([]*gtree.Tree, 0, 6)
	for len(props) < 6 {
		p := tree.Clone()
		if resim.ResimulateScratch(p, phi, 1.0, src, scratch) == nil {
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
	return tree, phi, props, mk
}

// anyTarget picks a deterministic non-root interior target.
func anyTarget(tree *gtree.Tree) int {
	return resim.PickTarget(tree, rng.NewMT19937(99))
}

// rootAdjacentTarget picks the second-oldest interior node: its parent
// must be older, and only the root is, so the round exercises the
// empty-root-path case where the candidate's parent slot becomes the root.
func rootAdjacentTarget(tree *gtree.Tree) int {
	best := gtree.Nil
	for k := 0; k < tree.NInterior(); k++ {
		i := tree.InteriorIndex(k)
		if i == tree.Root {
			continue
		}
		if best == gtree.Nil || tree.Nodes[i].Age > tree.Nodes[best].Age {
			best = i
		}
	}
	return best
}

func testWaveMatchesPerCandidate(t *testing.T, phiPick func(*gtree.Tree) int) {
	tree, phi, props, mk := waveFixture(t, phiPick)
	nPat := mk(device.Serial()).NPatterns()
	for _, bs := range blockSizesFor(nPat) {
		devs := []func() *device.Device{
			device.Serial,
			func() *device.Device { return device.New(2) },
			func() *device.Device { return device.New(8) },
		}
		var want []float64
		for di, mkDev := range devs {
			for rep := 0; rep < 2; rep++ {
				eval := mk(mkDev())
				eval.SetBlockSize(bs)
				c := eval.NewDeltaCache()
				eval.Rebase(c, tree)
				// Per-candidate oracle on this evaluator.
				oracle := make([]float64, len(props))
				for i, p := range props {
					oracle[i] = eval.LogLikelihoodDelta(c, p)
				}
				w := eval.NewWave(c)
				w.BindRound(phi)
				got := make([]float64, len(props))
				w.Eval(props, got)
				for i := range props {
					if math.Float64bits(got[i]) != math.Float64bits(oracle[i]) {
						t.Fatalf("blockSize=%d dev %d rep %d candidate %d: wave %v != per-candidate %v (must be bit-identical)",
							bs, di, rep, i, got[i], oracle[i])
					}
				}
				if di == 0 && rep == 0 {
					want = got
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("blockSize=%d dev %d rep %d candidate %d: wave %v != first run %v (must be bit-identical)",
							bs, di, rep, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestWaveMatchesPerCandidateBits(t *testing.T) {
	ForEachKernel(t, func(t *testing.T) { testWaveMatchesPerCandidate(t, anyTarget) })
}

func TestWaveMatchesPerCandidateBitsRootCase(t *testing.T) {
	ForEachKernel(t, func(t *testing.T) { testWaveMatchesPerCandidate(t, rootAdjacentTarget) })
}

func TestWaveSkipsNilSlots(t *testing.T) {
	// A nil tree (the current state's slot, or a failed candidate) is
	// skipped and its output slot left untouched; the live candidates'
	// results are unaffected by the skipped ones.
	tree, phi, props, mk := waveFixture(t, anyTarget)
	eval := mk(device.Serial())
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	w := eval.NewWave(c)
	w.BindRound(phi)
	full := make([]float64, len(props))
	w.Eval(props, full)

	sparse := make([]*gtree.Tree, len(props))
	copy(sparse, props)
	sparse[0], sparse[3] = nil, nil
	const sentinel = -12345.0
	got := make([]float64, len(props))
	for i := range got {
		got[i] = sentinel
	}
	w.BindRound(phi)
	w.Eval(sparse, got)
	for i := range props {
		switch {
		case sparse[i] == nil && got[i] != sentinel:
			t.Errorf("slot %d: skipped slot overwritten with %v", i, got[i])
		case sparse[i] != nil && got[i] != full[i]:
			t.Errorf("slot %d: %v != full-set result %v (must be bit-identical)", i, got[i], full[i])
		}
	}

	// An all-nil round evaluates nothing.
	for i := range got {
		got[i] = sentinel
	}
	w.BindRound(phi)
	w.Eval(make([]*gtree.Tree, len(props)), got)
	for i := range got {
		if got[i] != sentinel {
			t.Errorf("all-nil Eval wrote slot %d", i)
		}
	}
}

func TestWaveAcrossRounds(t *testing.T) {
	// The GMH round cycle: evaluate a wave, rebase the cache onto an
	// accepted candidate, bind a fresh φ, evaluate the next wave — every
	// round bit-identical to the per-candidate path on an independently
	// maintained evaluator.
	scratch := resim.NewScratch()
	tree, _, _, mk := waveFixture(t, anyTarget)
	a := mk(device.New(4))
	b := mk(device.Serial())
	ca, cb := a.NewDeltaCache(), b.NewDeltaCache()
	a.Rebase(ca, tree)
	b.Rebase(cb, tree)
	w := a.NewWave(ca)
	src := rng.NewMT19937(31)
	cur := tree.Clone()
	for round := 0; round < 8; round++ {
		phi := resim.PickTarget(cur, src)
		props := make([]*gtree.Tree, 0, 4)
		for len(props) < 4 {
			p := cur.Clone()
			if resim.ResimulateScratch(p, phi, 1.0, src, scratch) == nil {
				props = append(props, p)
			}
		}
		got := make([]float64, len(props))
		w.BindRound(phi)
		w.Eval(props, got)
		for i, p := range props {
			if want := b.LogLikelihoodDelta(cb, p); got[i] != want {
				t.Fatalf("round %d candidate %d: wave %v != per-candidate %v (must be bit-identical)",
					round, i, got[i], want)
			}
		}
		// Accept a candidate chosen by the round number.
		cur = props[round%len(props)]
		a.RebaseTo(ca, cur)
		b.RebaseTo(cb, cur)
	}
}

func TestWaveEvalRequiresBind(t *testing.T) {
	tree, _, props, mk := waveFixture(t, anyTarget)
	eval := mk(device.Serial())
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	w := eval.NewWave(c)
	defer func() {
		if recover() == nil {
			t.Error("Eval without BindRound did not panic")
		}
	}()
	w.Eval(props, make([]float64, len(props)))
}

func TestWaveBindRejectsBadTarget(t *testing.T) {
	tree, _, _, mk := waveFixture(t, anyTarget)
	eval := mk(device.Serial())
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	w := eval.NewWave(c)
	for _, phi := range []int{0, tree.Root} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BindRound(%d) did not panic", phi)
				}
			}()
			w.BindRound(phi)
		}()
	}
}
