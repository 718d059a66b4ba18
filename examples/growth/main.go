// Growth demonstrates the paper's §7 extension: estimating a second
// population parameter. Two datasets are simulated — one from a
// constant-size population and one from a strongly growing population —
// and the two-parameter relative likelihood L(θ, g) is maximized over the
// genealogies sampled from each. The growing dataset should receive a
// clearly positive growth estimate.
package main

import (
	"fmt"
	"log"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/mssim"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func estimate(trueG float64, seed uint64) *core.GrowthEstimate {
	const (
		nSeq   = 10
		seqLen = 300
		theta  = 1.0
	)
	src := rng.NewStreamSet(1, seed).Stream(0)
	tree, err := mssim.SimulateGrowth(mssim.TipNames(nSeq), theta, trueG, src)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := seqgen.Simulate(tree, seqgen.Config{Length: seqLen, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	dev := device.New(0)
	defer dev.Close()
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		log.Fatal(err)
	}
	init, err := core.InitialTree(aln, theta, seed)
	if err != nil {
		log.Fatal(err)
	}
	run, err := core.Run(core.NewGMH(eval, dev, dev.Workers()), init, core.ChainConfig{
		Theta: theta, Burnin: 1000, Samples: 10000, Seed: seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	est, err := core.MaximizeThetaGrowth(run.Samples, dev)
	if err != nil {
		log.Fatal(err)
	}
	return est
}

func main() {
	fmt.Println("two-parameter estimation (theta, g): sequences simulated at theta = 1.0")
	fmt.Printf("%-22s %-12s %-12s\n", "population", "theta-hat", "g-hat")
	for _, c := range []struct {
		label string
		g     float64
		seed  uint64
	}{
		{"constant (g = 0)", 0, 101},
		{"growing (g = 6)", 6, 102},
	} {
		est := estimate(c.g, c.seed)
		fmt.Printf("%-22s %-12.3f %-12.3f\n", c.label, est.Theta, est.Growth)
	}
	fmt.Println("\nthe growing population's compressed deep coalescences should")
	fmt.Println("pull its growth estimate well above the constant population's.")
}
