package core

import (
	"math"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func TestBayesianFlatDataThetaFollowsPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// With a flat likelihood the joint posterior factorizes as
	// π(θ)·P(G|θ): the marginal of θ is exactly the log-uniform prior.
	// Check the mean of log θ and the median against the prior's.
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), 1.0, 311)
	b := NewBayesian(eval)
	b.ThetaMin, b.ThetaMax = 0.1, 10.0
	b.ThetaStep = 0.8 // wide steps to traverse the support quickly
	res, err := b.Run(init, ChainConfig{Theta: 1.0, Burnin: 2000, Samples: 60000, Seed: 312})
	if err != nil {
		t.Fatal(err)
	}
	thetas := res.Thetas[res.Samples.Burnin:]
	var sumLog float64
	below := 0
	for _, th := range thetas {
		if th < b.ThetaMin || th > b.ThetaMax {
			t.Fatalf("theta %v escaped prior support", th)
		}
		sumLog += math.Log(th)
		if th < 1.0 { // geometric midpoint of [0.1, 10]
			below++
		}
	}
	meanLog := sumLog / float64(len(thetas))
	if math.Abs(meanLog) > 0.15 { // prior mean of log theta is 0
		t.Errorf("E[log theta] = %v, want ~0 under log-uniform prior", meanLog)
	}
	frac := float64(below) / float64(len(thetas))
	if math.Abs(frac-0.5) > 0.06 {
		t.Errorf("P(theta < geometric mid) = %v, want ~0.5", frac)
	}
}

func TestBayesianFlatDataGenealogyConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// Under the factorized flat-data posterior, E[SumKKT] =
	// (n-1)·E_prior[θ] with E[θ] = (max-min)/ln(max/min) for the
	// log-uniform prior.
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), 1.0, 321)
	b := NewBayesian(eval)
	b.ThetaMin, b.ThetaMax = 0.5, 2.0
	b.ThetaStep = 0.5
	res, err := b.Run(init, ChainConfig{Theta: 1.0, Burnin: 2000, Samples: 60000, Seed: 322})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Samples.PostBurninStats()
	var sum float64
	for _, v := range stats {
		sum += v
	}
	got := sum / float64(len(stats))
	eTheta := (2.0 - 0.5) / math.Log(4.0)
	want := 4 * eTheta // (n-1) = 4
	if math.Abs(got-want) > 0.08*want {
		t.Errorf("E[SumKKT] = %v, want %v (±8%%)", got, want)
	}
}

func TestBayesianPosteriorNearMLE(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline statistical test")
	}
	// On real data the posterior mean of θ should land in the same
	// region as the EM point estimate.
	trueTheta := 1.0
	aln, _, err := seqgen.SimulateData(8, 300, trueTheta, 331)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 332)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBayesian(eval)
	res, err := b.Run(init, ChainConfig{Theta: 1.0, Burnin: 3000, Samples: 20000, Seed: 333})
	if err != nil {
		t.Fatal(err)
	}
	post := res.PosteriorMeanTheta()
	if post < trueTheta/3 || post > trueTheta*3 {
		t.Errorf("posterior mean theta = %v, too far from truth %v", post, trueTheta)
	}
	if res.ThetaAccepted == 0 || res.TreeAccepted == 0 {
		t.Errorf("moves not mixing: theta %d/%d, tree %d/%d",
			res.ThetaAccepted, res.ThetaMoves, res.TreeAccepted, res.TreeMoves)
	}
}

func TestBayesianDeterministic(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1.0, 341)
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 300, Seed: 342}
	a, err := NewBayesian(eval).Run(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBayesian(eval).Run(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Thetas {
		if a.Thetas[i] != b.Thetas[i] {
			t.Fatalf("theta trace diverged at %d", i)
		}
	}
}

func TestBayesianValidation(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1.0, 351)
	b := NewBayesian(eval)
	b.ThetaMin, b.ThetaMax = 2.0, 1.0
	if _, err := b.Run(init, ChainConfig{Theta: 1.5, Samples: 10}); err == nil {
		t.Error("inverted prior range accepted")
	}
	c := NewBayesian(eval)
	c.ThetaMin, c.ThetaMax = 1.0, 2.0
	if _, err := c.Run(init, ChainConfig{Theta: 5.0, Samples: 10}); err == nil {
		t.Error("initial theta outside support accepted")
	}
	if _, err := NewBayesian(eval).Run(init, ChainConfig{Theta: 0, Samples: 10}); err == nil {
		t.Error("bad chain config accepted")
	}
}

func TestBayesianThetaEvery(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1.0, 361)
	b := NewBayesian(eval)
	b.ThetaEvery = 5
	res, err := b.Run(init, ChainConfig{Theta: 1.0, Burnin: 0, Samples: 100, Seed: 362})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThetaMoves != 20 {
		t.Errorf("ThetaMoves = %d, want 20 with ThetaEvery=5 over 100 steps", res.ThetaMoves)
	}
}

// floatsHash is an FNV-1a hash over the IEEE-754 bits of xs, so a pinned
// value fails on any bit-level change of the draw stream.
func floatsHash(xs []float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// TestBayesianPinnedDraws pins the joint chain's output at fixed seeds —
// θ trace, genealogy statistic trace and both move counters — so any
// change to move order, stream use or recording shows as a bit change.
func TestBayesianPinnedDraws(t *testing.T) {
	aln, _, err := seqgen.SimulateData(5, 60, 1.0, 371)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 372)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		every                       int
		thetas, stats               uint64
		treeAccepted, thetaAccepted int
		thetaMoves                  int
	}{
		{1, 0x53642c357becad63, 0x57bc0a8d3fa3f88a, 53, 415, 500},
		{3, 0x70fb91f4097a82c6, 0x3cf8b9e9534c4a8c, 50, 137, 167},
	} {
		b := NewBayesian(eval)
		b.ThetaEvery = tc.every
		b.ThetaStep = 0.3
		res, err := b.Run(init, ChainConfig{Theta: 1.0, Burnin: 100, Samples: 400, Seed: 373})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Thetas) != 500 || res.Samples.Len() != 500 || res.TreeMoves != 500 || res.ThetaMoves != tc.thetaMoves {
			t.Fatalf("every=%d: %d thetas, %d draws, %d tree moves, %d theta moves",
				tc.every, len(res.Thetas), res.Samples.Len(), res.TreeMoves, res.ThetaMoves)
		}
		if h := floatsHash(res.Thetas); h != tc.thetas {
			t.Errorf("every=%d: theta trace hash %#x, want %#x", tc.every, h, tc.thetas)
		}
		if h := floatsHash(res.Samples.Stats); h != tc.stats {
			t.Errorf("every=%d: stat trace hash %#x, want %#x", tc.every, h, tc.stats)
		}
		if res.TreeAccepted != tc.treeAccepted || res.ThetaAccepted != tc.thetaAccepted {
			t.Errorf("every=%d: accepted tree %d theta %d, want %d and %d",
				tc.every, res.TreeAccepted, res.ThetaAccepted, tc.treeAccepted, tc.thetaAccepted)
		}
	}
}

// TestBayesianHonoursESSTarget: the joint chain stops at its genealogy
// recorder's convergence target instead of running the whole draw budget,
// and keeps one θ per recorded draw.
func TestBayesianHonoursESSTarget(t *testing.T) {
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), 1.0, 381)
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 20000, Seed: 382, ESSTarget: 20}
	res, err := NewBayesian(eval).Run(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Samples.Len(); n >= cfg.Burnin+cfg.Samples {
		t.Fatalf("recorded the full budget of %d draws: ESS target ignored", n)
	}
	if len(res.Thetas) != res.Samples.Len() || res.TreeMoves != res.Samples.Len() {
		t.Fatalf("%d thetas and %d tree moves for %d recorded draws",
			len(res.Thetas), res.TreeMoves, res.Samples.Len())
	}
}
