package felsen

import (
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// benchWaveRound isolates the wave kernel from the sampler: one bound
// round of 8 candidates, evaluated either as a fused wave grid or by the
// per-candidate delta path, on a serial device so no launch scheduling
// obscures the kernel cost.
func benchWaveRound(b *testing.B, seqLen int, wave bool) {
	b.Helper()
	scratch := resim.NewScratch()
	aln, _, err := seqgen.SimulateData(12, seqLen, 1.0, 424)
	if err != nil {
		b.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewMT19937(17)
	tree, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
	if err != nil {
		b.Fatal(err)
	}
	phi := resim.PickTarget(tree, src)
	props := make([]*gtree.Tree, 0, 8)
	for len(props) < 8 {
		p := tree.Clone()
		if resim.ResimulateScratch(p, phi, 1.0, src, scratch) == nil {
			props = append(props, p)
		}
	}
	eval, err := New(model, aln, device.Serial())
	if err != nil {
		b.Fatal(err)
	}
	c := eval.NewDeltaCache()
	eval.Rebase(c, tree)
	out := make([]float64, len(props))
	w := eval.NewWave(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wave {
			w.BindRound(phi)
			w.Eval(props, out)
		} else {
			for j, p := range props {
				out[j] = eval.LogLikelihoodDelta(c, p)
			}
		}
	}
}

func BenchmarkWaveRound1000bp(b *testing.B)             { benchWaveRound(b, 1000, true) }
func BenchmarkWaveRound1000bpPerCandidate(b *testing.B) { benchWaveRound(b, 1000, false) }
func BenchmarkWaveRound4000bp(b *testing.B)             { benchWaveRound(b, 4000, true) }
func BenchmarkWaveRound4000bpPerCandidate(b *testing.B) { benchWaveRound(b, 4000, false) }
