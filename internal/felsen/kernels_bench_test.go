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
// frequencies with unit pattern counts. ns/pattern is the time per
// pattern of one node. The cell case is one whole wave cell over one
// block of n patterns (cellSum: the neighbourhood, a depth-3 walk and
// the root contraction, fused at the avx512 tier), on cellFixture's
// rows; its ns/pattern covers all five nodes and the root.
func BenchmarkKernels(b *testing.B) {
	ms := kernelMatrices(b)
	for _, kernel := range []string{"node", "walk", "lift", "neighbourhood", "root", "cell"} {
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
					counts := make([]float64, n)
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
						run = func() { evalRoot(l.view, counts, freqs, n) }
					case "cell":
						w, pr := cellFixture(g, ms, n, n, 3)
						ws := w.e.newWaveScratch()
						run = func() { w.cellSum(pr, 0, ws) }
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
