package felsen

import (
	"math"
	"sync"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// deltaFixture builds an evaluator over simulated data plus a valid
// starting genealogy.
func deltaFixture(t *testing.T, nSeq, seqLen int, seed uint64) (*Evaluator, *gtree.Tree, *rng.MT19937) {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	eval := evalFor(t, aln)
	src := rng.NewMT19937(uint32(seed) + 7)
	tree, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
	if err != nil {
		t.Fatal(err)
	}
	return eval, tree, src
}

func evalFor(t *testing.T, aln *phylip.Alignment) *Evaluator {
	t.Helper()
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := New(model, aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

// closeRel reports whether two log-likelihoods agree to floating-point
// roundoff: the delta path reassociates the sum over sites by pattern, so
// exact bit equality with the serial path is not expected.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestRebaseMatchesSerial(t *testing.T) {
	ForEachKernel(t, testRebaseMatchesSerial)
}

func testRebaseMatchesSerial(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 8, 120, 301)
	c := eval.NewDeltaCache()
	got := eval.Rebase(c, tree)
	want := eval.LogLikelihoodSerial(tree)
	if !closeRel(got, want) {
		t.Fatalf("Rebase = %v, LogLikelihoodSerial = %v", got, want)
	}
}

func TestDeltaMatchesSerialOverResimulations(t *testing.T) {
	ForEachKernel(t, testDeltaMatchesSerialOverResimulations)
}

func testDeltaMatchesSerialOverResimulations(t *testing.T) {
	// Across a long chain of neighbourhood resimulations, every delta
	// evaluation must agree with a from-scratch serial one to roundoff,
	// and with a from-scratch pattern evaluation bit-for-bit — the delta
	// path skips work, it never changes per-node arithmetic.
	scratch := resim.NewScratch()
	eval, tree, src := deltaFixture(t, 10, 80, 302)
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	prop := tree.Clone()
	for step := 0; step < 300; step++ {
		prop.CopyFrom(tree)
		target := resim.PickTarget(prop, src)
		if err := resim.ResimulateScratch(prop, target, 1.0, src, scratch); err != nil {
			continue
		}
		got := eval.LogLikelihoodDelta(c, prop)
		want := eval.LogLikelihoodSerial(prop)
		if !closeRel(got, want) {
			t.Fatalf("step %d: delta %v != serial %v", step, got, want)
		}
		// The delta result must be bit-identical to a from-scratch Rebase
		// (same pattern-compressed arithmetic), so proposal weights within
		// a set are exactly comparable.
		fresh := eval.NewDeltaCache()
		if full := eval.Rebase(fresh, prop); full != got {
			t.Fatalf("step %d: delta %v != full pattern eval %v (must be bit-identical)", step, got, full)
		}
		// Occasionally accept the proposal, moving the base incrementally.
		if step%3 == 0 {
			tree.CopyFrom(prop)
			if rb := eval.RebaseTo(c, tree); rb != got {
				t.Fatalf("step %d: RebaseTo %v != delta %v (must be bit-identical)", step, rb, got)
			}
		}
	}
}

func TestDeltaIdenticalTreeReturnsCachedValue(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 6, 50, 303)
	c := eval.NewDeltaCache()
	want := eval.Rebase(c, tree)
	if got := eval.LogLikelihoodDelta(c, tree.Clone()); got != want {
		t.Fatalf("delta on identical tree = %v, want cached %v", got, want)
	}
	if got := eval.RebaseTo(c, tree.Clone()); got != want {
		t.Fatalf("RebaseTo on identical tree = %v, want cached %v", got, want)
	}
}

func TestDeltaConcurrentProposals(t *testing.T) {
	// N goroutines evaluate distinct proposals against one shared cache,
	// the GMH proposal-kernel pattern. Run with -race in CI.
	scratch := resim.NewScratch()
	eval, tree, src := deltaFixture(t, 10, 60, 304)
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	const n = 8
	props := make([]*gtree.Tree, n)
	want := make([]float64, n)
	for i := range props {
		props[i] = tree.Clone()
		target := resim.PickTarget(props[i], src)
		if err := resim.ResimulateScratch(props[i], target, 1.0, src, scratch); err != nil {
			t.Fatal(err)
		}
		want[i] = eval.LogLikelihoodSerial(props[i])
	}
	var wg sync.WaitGroup
	got := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = eval.LogLikelihoodDelta(c, props[i])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !closeRel(got[i], want[i]) {
			t.Errorf("proposal %d: concurrent delta %v != serial %v", i, got[i], want[i])
		}
	}
}

func TestDeltaPanicsWithoutRebase(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 6, 40, 305)
	c := eval.NewDeltaCache()
	defer func() {
		if recover() == nil {
			t.Error("LogLikelihoodDelta on unfilled cache did not panic")
		}
	}()
	eval.LogLikelihoodDelta(c, tree)
}

func TestRebaseToOnFreshCacheFallsBackToFull(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 6, 40, 306)
	c := eval.NewDeltaCache()
	want := eval.LogLikelihoodSerial(tree)
	if got := eval.RebaseTo(c, tree); !closeRel(got, want) {
		t.Fatalf("RebaseTo on fresh cache = %v, want %v", got, want)
	}
}

func TestTipRowResolutionBitIdentical(t *testing.T) {
	// Tip-heavy pin for the pre-resolved (branchless) row selection: on a
	// minimal tree every dirty node's children are mostly tips, so each
	// evaluation streams the tip table through bindRows' resolved slice
	// headers. Results must stay bit-identical between the delta path, a
	// from-scratch pattern evaluation, and the staged path, across block
	// sizes straddling the pattern count.
	scratch := resim.NewScratch()
	aln, _, err := seqgen.SimulateData(4, 240, 1.0, 881)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 7, 64, 4096} {
		eval, err := New(model, aln, device.Serial())
		if err != nil {
			t.Fatal(err)
		}
		eval.SetBlockSize(bs)
		src := rng.NewMT19937(882)
		tree, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
		if err != nil {
			t.Fatal(err)
		}
		c := eval.NewDeltaCache()
		eval.Rebase(c, tree)
		prop := tree.Clone()
		for step := 0; step < 50; step++ {
			prop.CopyFrom(tree)
			target := resim.PickTarget(prop, src)
			if err := resim.ResimulateScratch(prop, target, 1.0, src, scratch); err != nil {
				continue
			}
			got := eval.LogLikelihoodDelta(c, prop)
			fresh := eval.NewDeltaCache()
			if full := eval.Rebase(fresh, prop); math.Float64bits(full) != math.Float64bits(got) {
				t.Fatalf("bs=%d step %d: delta %v != full pattern eval %v (must be bit-identical)", bs, step, got, full)
			}
			st := eval.StageDelta(c, prop)
			if math.Float64bits(st.LogLik()) != math.Float64bits(got) {
				t.Fatalf("bs=%d step %d: staged %v != delta %v (must be bit-identical)", bs, step, st.LogLik(), got)
			}
			if step%2 == 0 {
				st.Commit()
				tree.CopyFrom(prop)
			} else {
				st.Discard()
			}
		}
	}
}
