package mpcgs

// The benchmarks below regenerate the measurements behind every table and
// figure of the paper's evaluation section (§6). Each benchmark times the
// workload of one experiment; cmd/paperbench renders the corresponding
// tables and ASCII figures, and EXPERIMENTS.md records paper-vs-measured.
//
//	Table 1 / Fig. 13  BenchmarkTable1Accuracy{LAMARC,MPCGS}
//	Table 2 / Fig. 14  BenchmarkTable2SpeedupSamples/...
//	Table 3 / Fig. 15  BenchmarkTable3SpeedupSequences/...
//	Table 4 / Fig. 16  BenchmarkTable4SpeedupSeqLen/...
//	Fig. 5             BenchmarkFig5LikelihoodCurve
//	Fig. 2             BenchmarkFig2BurninTrace
//	Fig. 6             BenchmarkFig6Multichain/...
//
// Speedup benchmarks report the paper's headline quantity as the custom
// metric "speedup" (serial wall time / parallel wall time), measured
// within a single benchmark iteration so -benchtime=1x is sufficient.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// benchData caches simulated datasets across benchmark iterations.
var benchData = map[string]*phylip.Alignment{}

func benchAlignment(b *testing.B, nSeq, seqLen int, theta float64) *phylip.Alignment {
	b.Helper()
	key := fmt.Sprintf("%d-%d-%g", nSeq, seqLen, theta)
	if a, ok := benchData[key]; ok {
		return a
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, theta, 20160401)
	if err != nil {
		b.Fatal(err)
	}
	benchData[key] = aln
	return aln
}

func benchEvaluator(b *testing.B, aln *phylip.Alignment, dev *device.Device) *felsen.Evaluator {
	b.Helper()
	return benchBuild(b, felsen.New, aln, dev)
}

// benchReference is benchEvaluator in the LAMARC reference mode: full
// likelihood recomputation per step.
func benchReference(b *testing.B, aln *phylip.Alignment, dev *device.Device) *felsen.Evaluator {
	b.Helper()
	return benchBuild(b, felsen.NewReference, aln, dev)
}

func benchBuild(b *testing.B, build func(subst.Model, *phylip.Alignment, *device.Device) (*felsen.Evaluator, error),
	aln *phylip.Alignment, dev *device.Device) *felsen.Evaluator {
	b.Helper()
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := build(model, aln, dev)
	if err != nil {
		b.Fatal(err)
	}
	return eval
}

func benchRun(b *testing.B, s core.StepSampler, aln *phylip.Alignment, burnin, samples int) time.Duration {
	b.Helper()
	init, err := core.InitialTree(aln, 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if _, err := core.Run(s, init, core.ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// benchSpeedup times the serial LAMARC baseline against the parallel GMH
// sampler on the same workload and reports the ratio as the "speedup"
// metric, the y-axis of Figs. 14-16.
func benchSpeedup(b *testing.B, nSeq, seqLen, burnin, samples int) {
	aln := benchAlignment(b, nSeq, seqLen, 1.0)
	dev := device.New(0)
	defer dev.Close()
	serial := benchReference(b, aln, device.Serial())
	parallel := benchEvaluator(b, aln, dev)
	lamarc := core.NewMH(serial)
	var speedup float64
	for i := 0; i < b.N; i++ {
		tSerial := benchRun(b, lamarc, aln, burnin, samples)
		tParallel := benchRun(b, core.NewGMH(parallel, dev, dev.Workers()), aln, burnin, samples)
		speedup = tSerial.Seconds() / tParallel.Seconds()
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkTable1AccuracyLAMARC times one serial-MH θ estimation on the
// Table 1 workload (12 sequences x 200 bp).
func BenchmarkTable1AccuracyLAMARC(b *testing.B) {
	aln := benchAlignment(b, 12, 200, 1.0)
	eval := benchEvaluator(b, aln, device.Serial())
	dev := device.New(0)
	for i := 0; i < b.N; i++ {
		init, err := core.InitialTree(aln, 0.5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunEM(core.NewMH(eval), init, core.EMConfig{
			InitialTheta: 0.5, Iterations: 2, Burnin: 200, Samples: 2000, Seed: 7,
		}, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1AccuracyMPCGS times one GMH θ estimation on the same
// workload.
func BenchmarkTable1AccuracyMPCGS(b *testing.B) {
	aln := benchAlignment(b, 12, 200, 1.0)
	dev := device.New(0)
	eval := benchEvaluator(b, aln, dev)
	for i := 0; i < b.N; i++ {
		init, err := core.InitialTree(aln, 0.5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunEM(core.NewGMH(eval, dev, dev.Workers()), init, core.EMConfig{
			InitialTheta: 0.5, Iterations: 2, Burnin: 200, Samples: 2000, Seed: 7,
		}, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SpeedupSamples sweeps the sample count (Fig. 14's x axis,
// scaled 10x down from the paper's 20k-100k so a full sweep stays fast).
func BenchmarkTable2SpeedupSamples(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			benchSpeedup(b, 12, 200, 200, n)
		})
	}
}

// BenchmarkTable3SpeedupSequences sweeps the sequence count (Fig. 15).
func BenchmarkTable3SpeedupSequences(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		b.Run(fmt.Sprintf("nseq=%d", n), func(b *testing.B) {
			benchSpeedup(b, n, 200, 100, 1000)
		})
	}
}

// BenchmarkTable4SpeedupSeqLen sweeps the sequence length (Fig. 16).
func BenchmarkTable4SpeedupSeqLen(b *testing.B) {
	for _, L := range []int{200, 600, 1000} {
		b.Run(fmt.Sprintf("bp=%d", L), func(b *testing.B) {
			benchSpeedup(b, 12, L, 100, 1000)
		})
	}
}

// BenchmarkFig5LikelihoodCurve times the single sampling pass plus curve
// evaluation behind Fig. 5.
func BenchmarkFig5LikelihoodCurve(b *testing.B) {
	aln := benchAlignment(b, 12, 200, 1.0)
	dev := device.New(0)
	eval := benchEvaluator(b, aln, dev)
	for i := 0; i < b.N; i++ {
		init, err := core.InitialTree(aln, 0.01, 7)
		if err != nil {
			b.Fatal(err)
		}
		run, err := core.Run(core.NewGMH(eval, dev, dev.Workers()), init, core.ChainConfig{
			Theta: 0.01, Burnin: 200, Samples: 2000, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		grid := make([]float64, 0, 40)
		for x := 0.005; x <= 10.0; x *= 1.25 {
			grid = append(grid, x)
		}
		core.Curve(run.Samples, grid, dev)
	}
}

// BenchmarkFig2BurninTrace times the cold-start trace run of Fig. 2.
func BenchmarkFig2BurninTrace(b *testing.B) {
	aln := benchAlignment(b, 12, 200, 1.0)
	eval := benchEvaluator(b, aln, device.Serial())
	for i := 0; i < b.N; i++ {
		init, err := core.InitialTree(aln, 1.0, 7)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(core.NewMH(eval), init, core.ChainConfig{
			Theta: 1.0, Burnin: 0, Samples: 2000, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Multichain compares the multichain baseline against GMH at
// increasing parallelism, reporting the GMH advantage as "gmh_advantage"
// (multichain wall / GMH wall). The workload follows Fig. 6's regime:
// burn-in comparable to the sampling budget, so the per-chain burn-in
// genuinely floors the multichain wall time at higher parallelism.
func BenchmarkFig6Multichain(b *testing.B) {
	maxP := runtime.GOMAXPROCS(0)
	for p := 1; p <= maxP; p *= 4 {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			aln := benchAlignment(b, 12, 400, 1.0)
			dev := device.New(p)
			// The historical LAMARC-chain measurement.
			serial := benchReference(b, aln, device.Serial())
			parallel := benchEvaluator(b, aln, dev)
			mc := core.NewMultiChain(serial, dev, p)
			var advantage float64
			for i := 0; i < b.N; i++ {
				tMC := benchRun(b, mc, aln, 1500, 1500)
				tGMH := benchRun(b, core.NewGMH(parallel, dev, p), aln, 1500, 1500)
				advantage = tMC.Seconds() / tGMH.Seconds()
			}
			b.ReportMetric(advantage, "gmh_advantage")
		})
	}
}

// BenchmarkProposalKernel times one resimulation + likelihood round of the
// GMH proposal kernel, the unit of work the paper's §5.2.1 kernel
// performs per thread.
func BenchmarkProposalKernel(b *testing.B) {
	aln := benchAlignment(b, 12, 200, 1.0)
	dev := device.New(0)
	eval := benchEvaluator(b, aln, dev)
	init, err := core.InitialTree(aln, 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	g := core.NewGMH(eval, dev, dev.Workers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, init, core.ChainConfig{Theta: 1.0, Burnin: 0, Samples: dev.Workers(), Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataLikelihood times the Felsenstein pruning evaluation itself,
// serial vs device-parallel (the §5.2.2 kernel).
func BenchmarkDataLikelihood(b *testing.B) {
	for _, L := range []int{200, 1000} {
		aln := benchAlignment(b, 12, L, 1.0)
		init, err := core.InitialTree(aln, 1.0, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("serial/bp=%d", L), func(b *testing.B) {
			eval := benchEvaluator(b, aln, device.Serial())
			for i := 0; i < b.N; i++ {
				eval.LogLikelihoodSerial(init)
			}
		})
		b.Run(fmt.Sprintf("parallel/bp=%d", L), func(b *testing.B) {
			eval := benchEvaluator(b, aln, device.New(0))
			for i := 0; i < b.N; i++ {
				eval.LogLikelihood(init)
			}
		})
	}
}
