// Multichain demonstrates the paper's core argument (§3, Fig. 6): running
// P independent Metropolis-Hastings chains parallelizes the sampling
// phase but not the burn-in, so wall time saturates at the burn-in cost,
// while the GMH sampler parallelizes both.
package main

import (
	"fmt"
	"log"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func main() {
	// Burn-in comparable to the sampling budget and enough work per
	// likelihood evaluation: the regime of the paper's Fig. 6, where the
	// per-chain burn-in genuinely floors the multichain wall time.
	const (
		burnin  = 1500
		samples = 1500
	)
	aln, _, err := seqgen.SimulateData(12, 400, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("burn-in %d draws, %d pooled samples; Amdahl bound for multichain: %.2fx\n\n",
		burnin, samples, float64(burnin+samples)/float64(burnin))
	fmt.Printf("%-4s %-16s %-16s %-24s\n", "P", "multichain", "gmh", "model (B+N/P)/(B+N)")

	for _, p := range []int{1, 2, 4, 8, 16} {
		dev := device.New(p)
		// The historical LAMARC-chain measurement: full recomputation
		// per step.
		evalSerial, err := felsen.NewReference(model, aln, device.Serial())
		if err != nil {
			log.Fatal(err)
		}
		evalPar, err := felsen.New(model, aln, dev)
		if err != nil {
			log.Fatal(err)
		}
		run := func(s core.StepSampler) time.Duration {
			init, err := core.InitialTree(aln, 1.0, 13)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			if _, err := core.Run(s, init, core.ChainConfig{
				Theta: 1.0, Burnin: burnin, Samples: samples, Seed: 17,
			}); err != nil {
				log.Fatal(err)
			}
			return time.Since(start)
		}
		tMC := run(core.NewMultiChain(evalSerial, dev, p))
		tGMH := run(core.NewGMH(evalPar, dev, p))
		model := (float64(burnin) + float64(samples)/float64(p)) / float64(burnin+samples)
		fmt.Printf("%-4d %-16v %-16v %-24.3f\n", p, tMC.Round(time.Millisecond), tGMH.Round(time.Millisecond), model)
	}
	fmt.Println("\nmultichain wall time flattens towards the burn-in floor;")
	fmt.Println("gmh keeps falling because burn-in itself is parallelized.")
}
