package felsen

import (
	"testing"

	"mpcgs/internal/resim"
)

// TestStageDeltaMatchesLogLikelihoodDelta: the staged evaluation must
// return bit-identical log-likelihoods to the one-shot delta path (both
// run the same kernel), and Discard must leave the cache untouched.
func TestStageDeltaMatchesLogLikelihoodDelta(t *testing.T) {
	scratch := resim.NewScratch()
	eval, tree, src := deltaFixture(t, 10, 80, 501)
	c := eval.NewDeltaCache()
	base := eval.Rebase(c, tree)
	prop := tree.Clone()
	for step := 0; step < 200; step++ {
		prop.CopyFrom(tree)
		target := resim.PickTarget(prop, src)
		if err := resim.ResimulateScratch(prop, target, 1.0, src, scratch); err != nil {
			continue
		}
		want := eval.LogLikelihoodDelta(c, prop)
		d := eval.StageDelta(c, prop)
		if got := d.LogLik(); got != want {
			t.Fatalf("step %d: StageDelta = %v, LogLikelihoodDelta = %v", step, got, want)
		}
		d.Discard()
		// Cache unchanged: the base state must still evaluate to its
		// cached value with zero dirty nodes.
		if got := eval.LogLikelihoodDelta(c, tree); got != base {
			t.Fatalf("step %d: Discard dirtied the cache (%v vs %v)", step, got, base)
		}
	}
}

// TestStageDeltaCommitEqualsRebase: committing a staged evaluation must
// leave the cache in exactly the state RebaseTo would produce — same
// stored log-likelihood and same subsequent delta evaluations.
func TestStageDeltaCommitEqualsRebase(t *testing.T) {
	scratch := resim.NewScratch()
	eval, tree, src := deltaFixture(t, 10, 80, 502)
	cStaged := eval.NewDeltaCache()
	cRebase := eval.NewDeltaCache()
	eval.Rebase(cStaged, tree)
	eval.Rebase(cRebase, tree)

	cur := tree.Clone()
	prop := tree.Clone()
	for step := 0; step < 150; step++ {
		prop.CopyFrom(cur)
		target := resim.PickTarget(prop, src)
		if err := resim.ResimulateScratch(prop, target, 1.0, src, scratch); err != nil {
			continue
		}
		d := eval.StageDelta(cStaged, prop)
		staged := d.LogLik()
		d.Commit()
		rebase := eval.RebaseTo(cRebase, prop)
		if staged != rebase {
			t.Fatalf("step %d: committed %v, RebaseTo %v", step, staged, rebase)
		}
		cur.CopyFrom(prop)
		// Both caches must now agree that cur is clean.
		if a, b := eval.LogLikelihoodDelta(cStaged, cur), eval.LogLikelihoodDelta(cRebase, cur); a != b {
			t.Fatalf("step %d: caches diverged after commit (%v vs %v)", step, a, b)
		}
	}
}

// TestStageDeltaNoChange: staging the base tree itself returns the cached
// value and Commit/Discard are no-ops.
func TestStageDeltaNoChange(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 8, 60, 503)
	c := eval.NewDeltaCache()
	base := eval.Rebase(c, tree)
	d := eval.StageDelta(c, tree)
	if d.LogLik() != base {
		t.Fatalf("StageDelta on base = %v, want %v", d.LogLik(), base)
	}
	d.Commit()
	d.Discard()
	if got := eval.LogLikelihoodDelta(c, tree); got != base {
		t.Fatalf("no-change commit corrupted cache: %v vs %v", got, base)
	}
}

// TestStageDeltaPanicsWithoutBase mirrors LogLikelihoodDelta's contract.
func TestStageDeltaPanicsWithoutBase(t *testing.T) {
	eval, tree, _ := deltaFixture(t, 6, 40, 505)
	defer func() {
		if recover() == nil {
			t.Fatal("StageDelta on empty cache did not panic")
		}
	}()
	eval.StageDelta(eval.NewDeltaCache(), tree)
}
