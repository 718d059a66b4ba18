package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mpcgs/internal/felsen"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// BenchmarkIngest times the set-up every run, job start and submission
// pays before its first draw: parse the PHYLIP text, count base
// frequencies, build the UPGMA starting tree and compress site patterns
// for the evaluator. Each phase is reported as its own ms/op metric; the
// 32x4000 shape is the benchmark's gmh-longseq dataset.
func BenchmarkIngest(b *testing.B) {
	for _, shape := range []struct{ nSeq, length int }{{32, 4000}, {100, 20000}} {
		b.Run(fmt.Sprintf("%dx%d", shape.nSeq, shape.length), func(b *testing.B) {
			src, _, err := seqgen.SimulateData(shape.nSeq, shape.length, 1.0, 5)
			if err != nil {
				b.Fatal(err)
			}
			var phy bytes.Buffer
			if err := phylip.Write(&phy, src); err != nil {
				b.Fatal(err)
			}
			var read, freqs, init, eval time.Duration
			for b.Loop() {
				t0 := time.Now()
				aln, err := phylip.Read(bytes.NewReader(phy.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				pi := aln.BaseFreqs()
				t2 := time.Now()
				if _, err := InitialTree(aln, 0.5, 1); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				model, err := subst.NewF81(pi, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := felsen.New(model, aln, nil); err != nil {
					b.Fatal(err)
				}
				t4 := time.Now()
				read += t1.Sub(t0)
				freqs += t2.Sub(t1)
				init += t3.Sub(t2)
				eval += t4.Sub(t3)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(read), "read-ms/op")
			b.ReportMetric(ms(freqs), "basefreqs-ms/op")
			b.ReportMetric(ms(init), "inittree-ms/op")
			b.ReportMetric(ms(eval), "felsen-ms/op")
		})
	}
}
