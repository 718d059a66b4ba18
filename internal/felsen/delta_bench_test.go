package felsen

import (
	"fmt"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// benchFixture builds an evaluator on dev (nil for serial) over simulated
// nSeq x L data, and a random coalescent genealogy of its taxa.
func benchFixture(b *testing.B, nSeq, L int, dev *device.Device) (*Evaluator, *gtree.Tree) {
	b.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, L, 1.0, 99)
	if err != nil {
		b.Fatal(err)
	}
	eval := benchEval(b, aln, dev)
	tree, err := gtree.RandomCoalescent(aln.Names, 1.0, rng.NewMT19937(5))
	if err != nil {
		b.Fatal(err)
	}
	return eval, tree
}

func benchEval(b *testing.B, aln *phylip.Alignment, dev *device.Device) *Evaluator {
	b.Helper()
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := New(model, aln, dev)
	if err != nil {
		b.Fatal(err)
	}
	return eval
}

// benchProposal derives one valid neighbourhood resimulation of tree.
func benchProposal(b *testing.B, tree *gtree.Tree, seed uint32) *gtree.Tree {
	b.Helper()
	scratch := resim.NewScratch()
	src := rng.NewMT19937(seed)
	prop := tree.Clone()
	for {
		prop.CopyFrom(tree)
		target := resim.PickTarget(prop, src)
		if resim.ResimulateScratch(prop, target, 1.0, src, scratch) == nil {
			return prop
		}
	}
}

// BenchmarkDeltaVsSerial pins the cost of one proposal likelihood on the
// delta path (incremental, pattern-compressed, allocation-free) against
// the from-scratch serial evaluation the seed's GMH kernel performed per
// proposal. The ratio is the per-proposal work saving behind the §6
// speedups; it must grow with sequence length. The 4000bp point is the
// large-pattern regime this kernel is optimized for (Fig. 16's growing
// right edge): at 12 sequences it compresses to well over a thousand
// distinct site patterns, so the pattern-lane streaming dominates. The
// parallel case is the same from-scratch evaluation spread over a device
// pool (LogLikelihood: sites in LaunchBlocks, then a ReduceSum), the
// paper's §5.2.2 data likelihood kernel.
func BenchmarkDeltaVsSerial(b *testing.B) {
	dev := device.New(0)
	defer dev.Close()
	for _, L := range []int{200, 1000, 4000} {
		eval, tree := benchFixture(b, 12, L, nil)
		c := eval.NewDeltaCache()
		eval.Rebase(c, tree)
		prop := benchProposal(b, tree, 77)
		b.Run(fmt.Sprintf("delta/bp=%d", L), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.LogLikelihoodDelta(c, prop)
			}
		})
		b.Run(fmt.Sprintf("serial/bp=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.LogLikelihoodSerial(prop)
			}
		})
		par, _ := benchFixture(b, 12, L, dev)
		b.Run(fmt.Sprintf("parallel/bp=%d", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par.LogLikelihood(prop)
			}
		})
	}
}

// BenchmarkDeltaParallel measures the same per-proposal delta evaluation
// with pattern blocks spread over a device pool: the two-level
// (proposals x blocks) parallelism that lets one proposal's evaluation
// scale past the proposal count on large alignments.
func BenchmarkDeltaParallel(b *testing.B) {
	for _, L := range []int{1000, 4000} {
		dev := device.New(0)
		eval, tree := benchFixture(b, 12, L, dev)
		c := eval.NewDeltaCache()
		eval.Rebase(c, tree)
		prop := benchProposal(b, tree, 77)
		b.Run(fmt.Sprintf("bp=%d", L), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.LogLikelihoodDelta(c, prop)
			}
		})
		dev.Close()
	}
}

// BenchmarkRebaseTo measures the accept path of the GMH round loop: the
// incremental cache move onto a freshly accepted proposal. Together with
// BenchmarkDeltaVsSerial it covers both halves of the per-round kernel
// cost (evaluate-all, rebase-one).
func BenchmarkRebaseTo(b *testing.B) {
	scratch := resim.NewScratch()
	for _, L := range []int{200, 1000, 4000} {
		eval, tree := benchFixture(b, 12, L, nil)
		c := eval.NewDeltaCache()
		eval.Rebase(c, tree)
		src := rng.NewMT19937(31)
		// Two trees one neighbourhood move apart: alternating RebaseTo
		// between them keeps every iteration's dirty set non-empty.
		a := tree.Clone()
		p := tree.Clone()
		for {
			p.CopyFrom(a)
			target := resim.PickTarget(p, src)
			if resim.ResimulateScratch(p, target, 1.0, src, scratch) == nil {
				break
			}
		}
		b.Run(fmt.Sprintf("bp=%d", L), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					eval.RebaseTo(c, p)
				} else {
					eval.RebaseTo(c, a)
				}
			}
		})
	}
}

// BenchmarkRebaseFull measures a full-tree evaluation through the block
// kernel: every interior node dirty, so — at 12 sequences — over half of
// all child rows are tip rows. This is the tip-dominated regime that
// pins the cost of tip-cell selection, which bindRows resolves once per
// evaluation into plain slice headers instead of re-branching per node
// per block.
func BenchmarkRebaseFull(b *testing.B) {
	for _, L := range []int{1000, 4000} {
		eval, tree := benchFixture(b, 12, L, nil)
		c := eval.NewDeltaCache()
		b.Run(fmt.Sprintf("bp=%d", L), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.Rebase(c, tree)
			}
		})
	}
}
