package felsen

import (
	"fmt"
	"testing"

	"mpcgs/internal/rng"
)

// BenchmarkKernels times each pattern kernel alone at each tier the CPU
// runs (scalar, avx2, avx512; a missing tier skips), on
// one 128-pattern block (DefaultBlockSize, what a block or wave cell
// runs) and on a 3000-pattern lane (about gmh-longseq's pattern count).
// The inputs are F81 rows of uniform values at the production layout
// (lane stride laneStride(n), 64-byte-aligned lanes); the walk's outer
// lanes are all ones so repeated in-place steps stay clear of
// rescaling, and the root contraction runs over F81 stationary
// frequencies with unit pattern counts (its terms, then their sum).
// ns/pattern is the time per pattern of one node. The cell case is one
// whole wave cell over one block of n patterns (cellSum: the
// neighbourhood, a depth-3 walk and the root contraction, fused at the
// avx512 tier), on cellFixture's rows; its ns/pattern covers all five
// nodes and the root. The chain cases are one staged delta evaluation's
// block of n patterns (runBlock, fused at the avx512 tier) over a chain
// of 1, 3 or 6 dirty rows (newChainFixture); their ns/pattern covers
// every row, its stores and the root.
func BenchmarkKernels(b *testing.B) {
	ms := kernelMatrices(b)
	kernels := []string{"node", "walk", "lift", "neighbourhood", "root", "cell", "chain/depth=1", "chain/depth=3", "chain/depth=6"}
	for _, kernel := range kernels {
		for _, n := range []int{DefaultBlockSize, 3000} {
			for _, tr := range allTiers {
				b.Run(fmt.Sprintf("%s/%s/n=%d", kernel, tr, n), func(b *testing.B) {
					useTier(b, tr)
					g := &kernelGen{src: rng.NewMT19937(21)}
					l, r, c, o, tgt := g.laneRow(n), g.laneRow(n), g.laneRow(n), g.laneRow(n), g.laneRow(n)
					ones := g.laneRow(n)
					for i := range ones.cond {
						ones.cond[i] = 1
					}
					freqs := &[4]float64{0.1, 0.2, 0.3, 0.4}
					counts, terms := make([]float64, n), make([]float64, n)
					for i := range counts {
						counts[i] = 1
					}
					pr := &waveProp{tm0: ms[1], tm1: ms[2], pmPhi: ms[2], pmClean: ms[3]}
					var run func()
					switch kernel {
					case "node":
						run = func() { evalNode(l.view, r.view, o.view, &ms[1], &ms[2], n) }
					case "walk":
						run = func() { evalWalk(o.view, ones.view, &ms[2], n) }
					case "lift":
						run = func() { evalLift(l.view, o.view, &ms[2], n) }
					case "neighbourhood":
						run = func() { evalNeighbourhood(pr, l.view, r.view, c.view, tgt.view, o.view, n) }
					case "root":
						run = func() { rootSum(l.view, counts, freqs, n, terms) }
					case "cell":
						w, pr := cellFixture(g, ms, n, n, 3)
						ws := w.e.newWaveScratch()
						run = func() { w.cellSum(pr, 0, ws) }
					default: // chain/depth=d
						var depth int
						fmt.Sscanf(kernel, "chain/depth=%d", &depth)
						d := newChainFixture(b, n, n, depth).stage()
						defer d.Discard()
						run = func() { d.ds.runBlock(0) }
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pattern")
				})
			}
		}
	}
}
