// Simulate-estimate walks the paper's full §6.1 accuracy pipeline
// explicitly, using the substrate packages directly:
//
//  1. draw a true genealogy from the coalescent (the ms substrate),
//  2. evolve F84 sequences along it (the seq-gen substrate),
//  3. round-trip the data through the PHYLIP format,
//  4. estimate theta with both the serial LAMARC-style sampler and the
//     parallel GMH sampler, and compare.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/mssim"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func main() {
	const (
		trueTheta = 2.0
		nSeq      = 10
		seqLen    = 300
		seed      = 2024
	)

	// 1. True genealogy.
	trees, err := mssim.Simulate(mssim.Config{NSam: nSeq, Reps: 1, Theta: trueTheta, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	truth := trees[0]
	fmt.Printf("true genealogy height: %.4f (expected %.4f)\n",
		truth.Height(), trueTheta*(1-1/float64(nSeq)))

	// 2. Sequence evolution under F84.
	aln, err := seqgen.Simulate(truth, seqgen.Config{Length: seqLen, Seed: seed + 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. PHYLIP round trip, as the real tools would exchange data.
	var buf bytes.Buffer
	if err := phylip.Write(&buf, aln); err != nil {
		log.Fatal(err)
	}
	aln, err = phylip.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d sequences x %d bp\n", aln.NSeq(), aln.SeqLen())

	// 4. Estimate with both samplers over the identical substrate.
	dev := device.New(0)
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		log.Fatal(err)
	}
	emCfg := core.EMConfig{
		InitialTheta: 0.5,
		Iterations:   4,
		Burnin:       500,
		Samples:      4000,
		Seed:         seed + 2,
	}
	for _, s := range []struct {
		name    string
		sampler core.StepSampler
	}{
		{"mh", core.NewMH(eval)},
		{"gmh", core.NewGMH(eval, dev, dev.Workers())},
	} {
		init, err := core.InitialTree(aln, emCfg.InitialTheta, seed+3)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.RunEM(s.sampler, init, emCfg, dev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s theta = %.4f (true %.2f)\n", s.name+":", res.Theta, trueTheta)
	}
}
