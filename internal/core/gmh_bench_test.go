package core

import (
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// BenchmarkGMHRound times full GMH sampling runs (8 proposals, 8 draws
// per round) on the paper's Table 1 workload. allocs/op is the headline:
// the GMH round loop, the delta likelihood path and — since the per-run
// resim.Scratch — the resimulation kernel's region analysis all allocate
// nothing, so what remains is per-Run setup (slot trees, caches, streams,
// scratch), a fixed cost amortized over the chain length. The harness is
// kept exactly as it has always been (whole Run, setup included) so
// benchstat deltas across commits compare like with like.
func BenchmarkGMHRound(b *testing.B) {
	aln, _, err := seqgen.SimulateData(12, 200, 1.0, 20160401)
	if err != nil {
		b.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New(8)
	defer dev.Close()
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		b.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	g := NewGMH(eval, dev, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: 64, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// The sequence-length points of the wave acceptance criterion: one GMH
// round (8 proposals resimulated, evaluated, 8 index draws) at 1000bp and
// 4000bp, the fused (proposal × pattern-block) wave against the
// per-candidate dispatch it replaced on an identical workload. 32 taxa,
// where the shared root path above the resimulated neighbourhood is deep
// enough that the per-round outer-partial lift has something to lift;
// 12-taxon trees spend most rounds with the target's parent a step or two
// from the root, leaving little shared path to fuse.
func BenchmarkGMHRound1000bp(b *testing.B)             { benchGMHRoundStep(b, 32, 1000, 8, false) }
func BenchmarkGMHRound1000bpPerCandidate(b *testing.B) { benchGMHRoundStep(b, 32, 1000, 8, true) }
func BenchmarkGMHRound4000bp(b *testing.B)             { benchGMHRoundStep(b, 32, 4000, 8, false) }
func BenchmarkGMHRound4000bpPerCandidate(b *testing.B) { benchGMHRoundStep(b, 32, 4000, 8, true) }

// BenchmarkGMHRound200bp is one round at the 12-taxon, 200bp shape on 2
// workers: few patterns and a shallow root path, so resimulation, launch
// and the index-chain draws are most of the round rather than the
// likelihood kernels.
func BenchmarkGMHRound200bp(b *testing.B) { benchGMHRoundStep(b, 12, 200, 2, false) }

func benchGMHRoundStep(b *testing.B, nSeq, seqLen, workers int, perCandidate bool) {
	b.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, 20160401)
	if err != nil {
		b.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New(workers)
	defer dev.Close()
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		b.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	g := NewGMH(eval, dev, 8)
	g.PerCandidate = perCandidate
	// One long-lived run, rounds timed one Step at a time: the chain
	// setup (full-tree rebase, slot arenas, streams) is a fixed per-Run
	// cost and would otherwise dilute the round measurement.
	cfg := ChainConfig{Theta: 1.0, Burnin: 0, Samples: 4096, Seed: 7}
	run, err := g.Start(init, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run.Done() {
			b.StopTimer()
			if run, err = g.Start(init, cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
