package mpcgs_test

import (
	"fmt"
	"log"

	"mpcgs"
)

// Simulate a small dataset with a known θ and estimate it back with the
// default (GMH) sampler, from a deliberately bad initial guess. Workers
// is set because the default proposal count follows it: with Workers
// and Seed fixed, the estimate is the same on every host.
func ExampleRun() {
	aln, err := mpcgs.SimulateAlignment(12, 200, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	res, err := mpcgs.Run(mpcgs.Config{
		Alignment:    aln,
		InitialTheta: 0.1,
		Workers:      4,
		Burnin:       500,
		Samples:      4000,
		EMIterations: 5,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, h := range res.History {
		fmt.Printf("EM %d: theta %.4f -> %.4f\n", i+1, h.ThetaIn, h.ThetaOut)
	}
	fmt.Printf("estimated theta = %.4f (true 1.00)\n", res.Theta)
	// Output:
	// EM 1: theta 0.1000 -> 0.9931
	// EM 2: theta 0.9931 -> 1.4265
	// EM 3: theta 1.4265 -> 1.3607
	// EM 4: theta 1.3607 -> 1.3564
	// EM 5: theta 1.3564 -> 1.3981
	// estimated theta = 1.3981 (true 1.00)
}

// Curve evaluates the relative log-likelihood log L(θ) of the last
// sampling pass's genealogies over a θ grid, the curve of the paper's
// Fig. 5. With one EM iteration the estimate maximizes this same curve,
// so the grid's peak sits next to it.
func ExampleResult_Curve() {
	aln, err := mpcgs.SimulateAlignment(12, 200, 1.0, 99)
	if err != nil {
		log.Fatal(err)
	}
	res, err := mpcgs.Run(mpcgs.Config{
		Alignment:    aln,
		InitialTheta: 0.5,
		Workers:      4,
		Burnin:       500,
		Samples:      8000,
		EMIterations: 1,
		Seed:         3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var grid []float64
	for x := 0.005; x <= 10.0; x *= 1.2 {
		grid = append(grid, x)
	}
	logL := res.Curve(grid)
	best := 0
	for i := range grid {
		if logL[i] > logL[best] {
			best = i
		}
	}
	fmt.Printf("log L(%.3g) = %.2f\n", grid[0], logL[0])
	fmt.Printf("curve peaks at theta = %.3g, log L %.2f\n", grid[best], logL[best])
	fmt.Printf("one-pass estimate theta = %.3g\n", res.Theta)
	// Output:
	// log L(0.005) = -1340.47
	// curve peaks at theta = 0.824, log L 1.06
	// one-pass estimate theta = 0.762
}
