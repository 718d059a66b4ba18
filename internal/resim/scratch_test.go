package resim

import (
	"strings"
	"sync"
	"testing"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// benchTree builds a larger random coalescent genealogy for benchmarking.
func benchTree(b *testing.B, nTips int) *gtree.Tree {
	b.Helper()
	names := make([]string, nTips)
	for i := range names {
		names[i] = "t" + string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	tr, err := gtree.RandomCoalescent(names, 1.0, rng.NewMT19937(912))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkResimScratch measures one neighbourhood resimulation with a
// warm caller-owned Scratch: the per-draw fixed cost every sampler pays.
// allocs/op is the headline — it must be ~0, since the region analysis
// buffers all live in the Scratch.
func BenchmarkResimScratch(b *testing.B) {
	base := benchTree(b, 12)
	tr := base.Clone()
	src := rng.NewMT19937(913)
	s := NewScratch()
	// Warm the scratch so growth allocations happen before measurement.
	if err := ResimulateScratch(tr, PickTarget(tr, src), 1.0, src, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CopyFrom(base)
		if err := ResimulateScratch(tr, PickTarget(tr, src), 1.0, src, s); err != nil {
			b.Fatal(err)
		}
	}
}

// manyShapeTrees returns random genealogies of the TestResimulateManyShapes
// sizes with every non-root interior target, so the root-adjacent case
// (the target's parent is the root) appears on every tree.
func manyShapeTrees(t *testing.T, src rng.Source) []*gtree.Tree {
	t.Helper()
	var trees []*gtree.Tree
	for _, n := range []int{3, 4, 6, 10, 20} {
		names := make([]string, n)
		for i := range names {
			names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		tr, err := gtree.RandomCoalescent(names, 1.0, src)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

// TestAnalyzeOnceSampleManyMatchesResimulate: one Analyze followed by k
// Samples on copies of the tree gives the same bits as k independent
// ResimulateScratch calls on copies, stream for stream, over every target
// of trees of several sizes — the root-adjacent case included — and a
// range of θ.
func TestAnalyzeOnceSampleManyMatchesResimulate(t *testing.T) {
	const k = 8
	shared, own := NewScratch(), NewScratch()
	rootCases := 0
	for _, base := range manyShapeTrees(t, rng.NewMT19937(930)) {
		for _, theta := range []float64{0.05, 1.0, 10.0} {
			for n := 0; n < base.NInterior(); n++ {
				target := base.InteriorIndex(n)
				if target == base.Root {
					continue
				}
				if base.Nodes[target].Parent == base.Root {
					rootCases++
				}
				if err := shared.Analyze(base, target, theta); err != nil {
					t.Fatal(err)
				}
				streams := rng.NewStreamSet(k, 931+uint64(target))
				oracle := rng.NewStreamSet(k, 931+uint64(target))
				for i := 0; i < k; i++ {
					got, want := base.Clone(), base.Clone()
					errGot := shared.Sample(got, streams.Stream(i))
					errWant := ResimulateScratch(want, target, theta, oracle.Stream(i), own)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("tips=%d theta=%v target %d draw %d: errors %v vs %v", base.NTips(), theta, target, i, errGot, errWant)
					}
					for j := range got.Nodes {
						if got.Nodes[j] != want.Nodes[j] {
							t.Fatalf("tips=%d theta=%v target %d draw %d: node %d differs", base.NTips(), theta, target, i, j)
						}
					}
					if got.Root != want.Root {
						t.Fatalf("tips=%d theta=%v target %d draw %d: root differs", base.NTips(), theta, target, i)
					}
				}
				if !equalStates(streams, oracle) {
					t.Fatalf("tips=%d theta=%v target %d: streams consumed differently", base.NTips(), theta, target)
				}
			}
		}
	}
	if rootCases == 0 {
		t.Fatal("no root-adjacent target exercised")
	}
}

func equalStates(a, b *rng.StreamSet) bool {
	sa, sb := a.State(), b.State()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// TestAnalyzeErrorsMatchResimulate: each refused draw gives Analyze the
// same message ResimulateScratch gives, consumes no randomness, and leaves
// a Scratch that Sample refuses.
func TestAnalyzeErrorsMatchResimulate(t *testing.T) {
	tr := ladderTree(t)
	for _, tc := range []struct {
		name   string
		target int
		theta  float64
		want   string
	}{
		{"zero theta", 4, 0, "resim: theta 0 must be positive"},
		{"negative theta", 4, -1, "resim: theta -1 must be positive"},
		{"overflowing theta", 4, 1e-310, "resim: theta 1e-310 too small: coalescent rates overflow"},
		{"tip", 0, 1, "resim: target 0 is a tip"},
		{"root", tr.Root, 1, "resim: target 6 is the root"},
		{"out of range", 99, 1, "resim: target 99 out of range"},
		{"negative target", -1, 1, "resim: target -1 out of range"},
	} {
		s := NewScratch()
		// A good analysis first, so the refusal must also discard it.
		if err := s.Analyze(tr, 4, 1); err != nil {
			t.Fatal(err)
		}
		err := s.Analyze(tr, tc.target, tc.theta)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Analyze error %v, want %q", tc.name, err, tc.want)
		}
		src := rng.NewMT19937(932)
		before := src.State()
		if err := ResimulateScratch(tr.Clone(), tc.target, tc.theta, src, NewScratch()); err == nil || err.Error() != tc.want {
			t.Errorf("%s: ResimulateScratch error %v, want %q", tc.name, err, tc.want)
		}
		if src.State() != before {
			t.Errorf("%s: ResimulateScratch advanced the stream on a refused draw", tc.name)
		}
		got := tr.Clone()
		if err := s.Sample(got, src); err == nil {
			t.Errorf("%s: Sample ran after a failed Analyze", tc.name)
		}
		if src.State() != before {
			t.Errorf("%s: Sample advanced the stream after a failed Analyze", tc.name)
		}
		for j := range got.Nodes {
			if got.Nodes[j] != tr.Nodes[j] {
				t.Fatalf("%s: refused Sample modified node %d", tc.name, j)
			}
		}
	}
	if err := NewScratch().Sample(tr.Clone(), rng.NewMT19937(933)); err == nil {
		t.Error("Sample on a fresh Scratch accepted")
	}
}

// TestSampleRefusesDifferentNeighbourhood: Sample checks the tree it is
// given against the analysed neighbourhood — parent, ancestor, children
// and their ages — and refuses any difference without drawing.
func TestSampleRefusesDifferentNeighbourhood(t *testing.T) {
	base := ladderTree(t) // ((((a,b)4:1,c)5:2,d)6:3
	s := NewScratch()
	if err := s.Analyze(base, 4, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(tr *gtree.Tree)
	}{
		{"child age", func(tr *gtree.Tree) { tr.Nodes[0].Age = 0.5 }},
		{"sibling age", func(tr *gtree.Tree) { tr.Nodes[2].Age = 0.25 }},
		{"ancestor age", func(tr *gtree.Tree) { tr.Nodes[6].Age = 4 }},
		{"sibling", func(tr *gtree.Tree) {
			// Swap c and d: the target's sibling is now d.
			tr.Nodes[5].Child[1], tr.Nodes[6].Child[1] = 3, 2
			tr.Nodes[3].Parent, tr.Nodes[2].Parent = 5, 6
		}},
		{"children", func(tr *gtree.Tree) { tr.Nodes[4].Child = [2]int{1, 0} }},
		{"tip count", func(tr *gtree.Tree) { *tr = *gtree.New(5) }},
	} {
		tr := base.Clone()
		tc.edit(tr)
		src := rng.NewMT19937(934)
		before := src.State()
		err := s.Sample(tr, src)
		if err == nil || !strings.Contains(err.Error(), "differs from the analysed tree") {
			t.Errorf("%s: Sample error %v, want a neighbourhood mismatch", tc.name, err)
		}
		if src.State() != before {
			t.Errorf("%s: refused Sample advanced the stream", tc.name)
		}
	}
	// The unedited tree still samples.
	if err := s.Sample(base.Clone(), rng.NewMT19937(935)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSampleSharesAnalysis runs Sample from many goroutines on
// one analysed Scratch (under -race this checks Sample only reads it) and
// requires each result to equal the same stream's serial draw.
func TestConcurrentSampleSharesAnalysis(t *testing.T) {
	const k = 8
	base := manyShapeTrees(t, rng.NewMT19937(936))[3]
	target := PickTarget(base, rng.NewMT19937(937))
	s := NewScratch()
	if err := s.Analyze(base, target, 1.0); err != nil {
		t.Fatal(err)
	}
	want := make([]*gtree.Tree, k)
	serial := rng.NewStreamSet(k, 938)
	for i := range want {
		want[i] = base.Clone()
		if err := s.Sample(want[i], serial.Stream(i)); err != nil {
			t.Fatal(err)
		}
	}
	streams := rng.NewStreamSet(k, 938)
	got := make([]*gtree.Tree, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range got {
		got[i] = base.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 50 && errs[i] == nil; rep++ {
				// Only the first draw is compared; the rest add contention.
				tr := got[i]
				if rep > 0 {
					tr = base.Clone()
				}
				errs[i] = s.Sample(tr, streams.Stream(i))
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range got[i].Nodes {
			if got[i].Nodes[j] != want[i].Nodes[j] {
				t.Fatalf("stream %d: node %d differs from the serial draw", i, j)
			}
		}
	}
}

// BenchmarkResimRound is the resimulation half of one GMH round: 8
// proposals of one 12-tip neighbourhood, analysed once and sampled 8
// times (analyze-once), against 8 full ResimulateScratch draws
// (per-proposal). The gap is the cost of repeating the region analysis
// per proposal.
func BenchmarkResimRound(b *testing.B) {
	const k = 8
	base := benchTree(b, 12)
	targets := make([]int, 64)
	src := rng.NewMT19937(939)
	for i := range targets {
		targets[i] = PickTarget(base, src)
	}
	trees := make([]*gtree.Tree, k)
	for i := range trees {
		trees[i] = base.Clone()
	}
	streams := rng.NewStreamSet(k, 940)
	s := NewScratch()
	b.Run("analyze-once", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if err := s.Analyze(base, targets[n%len(targets)], 1.0); err != nil {
				b.Fatal(err)
			}
			for i, tr := range trees {
				tr.CopyFrom(base)
				if err := s.Sample(tr, streams.Stream(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("per-proposal", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			target := targets[n%len(targets)]
			for i, tr := range trees {
				tr.CopyFrom(base)
				if err := ResimulateScratch(tr, target, 1.0, streams.Stream(i), s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
