// Speedup measures the GMH sampler against the serial LAMARC-style
// baseline as the worker count grows, on the paper's reference workload
// (12 sequences x 200 bp), and again at a longer sequence length where
// the paper found the parallelism most effective (§6.2).
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func measure(nSeq, seqLen, burnin, samples int) {
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, 5)
	if err != nil {
		log.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		log.Fatal(err)
	}
	run := func(s core.StepSampler) time.Duration {
		init, err := core.InitialTree(aln, 1.0, 6)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := core.Run(s, init, core.ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: 8}); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}
	// The LAMARC reference: full recomputation per step.
	evalSerial, err := felsen.NewReference(model, aln, device.Serial())
	if err != nil {
		log.Fatal(err)
	}
	base := run(core.NewMH(evalSerial))
	fmt.Printf("workload %d x %d bp: serial MH baseline %v\n", nSeq, seqLen, base.Round(time.Millisecond))
	// Device workers are virtual GPU threads, not OS cores, so the sweep
	// covers the paper's ladder regardless of the host's core count (a
	// single-core host still benefits from the proposal-set machinery).
	maxP := 2 * runtime.GOMAXPROCS(0)
	if maxP < 8 {
		maxP = 8
	}
	for p := 2; p <= maxP; p *= 2 {
		dev := device.New(p)
		eval, err := felsen.New(model, aln, dev)
		if err != nil {
			log.Fatal(err)
		}
		t := run(core.NewGMH(eval, dev, p))
		dev.Close()
		fmt.Printf("  gmh workers=%-3d %-12v speedup %.2fx\n",
			p, t.Round(time.Millisecond), base.Seconds()/t.Seconds())
	}
	fmt.Println()
}

func main() {
	measure(12, 200, 200, 2000)
	measure(12, 1000, 100, 1000)
}
