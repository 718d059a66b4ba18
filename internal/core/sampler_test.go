package core

import (
	"math"
	"strings"
	"testing"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// flatAlignment builds an all-missing-data alignment: every genealogy has
// data likelihood exactly 1, so a correct sampler over it must reproduce
// the coalescent prior. This is the sharpest end-to-end check of both
// samplers' invariance.
func flatAlignment(n, L int) *phylip.Alignment {
	a := &phylip.Alignment{}
	for i := 0; i < n; i++ {
		a.Names = append(a.Names, "s"+string(rune('A'+i)))
		a.Seqs = append(a.Seqs, bitseq.FromString(strings.Repeat("-", L)))
	}
	return a
}

func flatEvaluator(t *testing.T, n int, dev *device.Device) *felsen.Evaluator {
	t.Helper()
	aln := flatAlignment(n, 4)
	e, err := felsen.New(subst.NewJC69(), aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func startTree(t *testing.T, names []string, theta float64, seed uint64) *gtree.Tree {
	t.Helper()
	src := seedSource(seed, 9)
	tr, err := gtree.RandomCoalescent(names, theta, src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "s" + string(rune('A'+i))
	}
	return out
}

// checkPriorMoments verifies that a sample set over flat data reproduces
// E[S] under the coalescent prior: S = sum over k of k(k-1) t_k with
// E[t_k] = theta/(k(k-1)), so E[S] = (n-1) * theta.
func checkPriorMoments(t *testing.T, label string, set *SampleSet, theta float64) {
	t.Helper()
	stats := set.PostBurninStats()
	sum := 0.0
	for _, v := range stats {
		sum += v
	}
	got := sum / float64(len(stats))
	want := float64(set.NTips-1) * theta
	if math.Abs(got-want) > 0.08*want {
		t.Errorf("%s: E[SumKKT] = %v, want %v (±8%%): sampler does not preserve the prior", label, got, want)
	}
}

func TestMHFlatDataSamplesPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	theta := 1.4
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), theta, 11)
	res, err := Run(NewMH(eval), init, ChainConfig{Theta: theta, Burnin: 500, Samples: 30000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	checkPriorMoments(t, "MH", res.Samples, theta)
	// Flat likelihood: every proposal accepted.
	if res.AcceptanceRate() != 1 {
		t.Errorf("flat-data acceptance = %v, want 1", res.AcceptanceRate())
	}
}

func TestGMHFlatDataSamplesPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	theta := 1.4
	dev := device.New(4)
	eval := flatEvaluator(t, 5, dev)
	init := startTree(t, names(5), theta, 13)
	g := NewGMH(eval, dev, 8)
	res, err := Run(g, init, ChainConfig{Theta: theta, Burnin: 500, Samples: 30000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	checkPriorMoments(t, "GMH", res.Samples, theta)
}

func TestMultiChainFlatDataSamplesPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	theta := 1.4
	dev := device.New(4)
	eval := flatEvaluator(t, 5, device.Serial())
	init := startTree(t, names(5), theta, 15)
	mc := NewMultiChain(eval, dev, 4)
	res, err := Run(mc, init, ChainConfig{Theta: theta, Burnin: 500, Samples: 20000, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkPriorMoments(t, "MultiChain", res.Samples, theta)
	if res.Samples.Len() != 20000 {
		t.Errorf("pooled %d samples, want 20000", res.Samples.Len())
	}
}

func TestMHDeterministic(t *testing.T) {
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 21)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(subst.NewJC69(), aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 22)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 200, Seed: 23}
	a, err := Run(NewMH(eval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewMH(eval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples.Stats {
		if a.Samples.Stats[i] != b.Samples.Stats[i] {
			t.Fatalf("MH diverged at draw %d", i)
		}
	}
}

func TestGMHDeterministicAcrossWorkerCounts(t *testing.T) {
	// GMH results must depend only on the seed, not on how many workers
	// execute the proposal kernel: per-slot PRNG streams guarantee it.
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 300, Seed: 33}
	var ref []float64
	for _, workers := range []int{1, 4, 16} {
		dev := device.New(workers)
		eval, err := felsen.New(subst.NewJC69(), aln, dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(NewGMH(eval, dev, 6), init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Samples.Stats
			continue
		}
		for i := range ref {
			if res.Samples.Stats[i] != ref[i] {
				t.Fatalf("workers=%d: draw %d differs (%v vs %v)", workers, i, res.Samples.Stats[i], ref[i])
			}
		}
	}
}

func TestGMHAndMHAgreeOnPosterior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// Both samplers target P(G|D,theta): their posterior means of the
	// sufficient statistic must agree within Monte Carlo error.
	aln, _, err := seqgen.SimulateData(6, 100, 1.0, 41)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(4)
	eval, err := felsen.New(subst.NewJC69(), aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Theta: 1.0, Burnin: 2000, Samples: 25000, Seed: 43}
	mh, err := Run(NewMH(eval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gmh, err := Run(NewGMH(eval, dev, 8), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	a := mean(mh.Samples.PostBurninStats())
	b := mean(gmh.Samples.PostBurninStats())
	if math.Abs(a-b) > 0.10*math.Max(a, b) {
		t.Errorf("posterior mean SumKKT: MH %v vs GMH %v (>10%% apart)", a, b)
	}
}

func TestChainConfigValidation(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 51)
	bad := []ChainConfig{
		{Theta: 0, Burnin: 1, Samples: 1},
		{Theta: 1, Burnin: -1, Samples: 1},
		{Theta: 1, Burnin: 1, Samples: 0},
	}
	for i, cfg := range bad {
		if _, err := Run(NewMH(eval), init, cfg); err == nil {
			t.Errorf("MH accepted bad config %d", i)
		}
		if _, err := Run(NewGMH(eval, device.Serial(), 4), init, cfg); err == nil {
			t.Errorf("GMH accepted bad config %d", i)
		}
	}
	good := ChainConfig{Theta: 1, Burnin: 1, Samples: 2}
	if _, err := Run(NewGMH(eval, device.Serial(), 0), init, good); err == nil {
		t.Error("GMH accepted 0 proposals")
	}
	if _, err := Run(NewMultiChain(eval, device.Serial(), 0), init, good); err == nil {
		t.Error("MultiChain accepted 0 chains")
	}
}

func TestTwoTipTreeRejected(t *testing.T) {
	eval := flatEvaluator(t, 2, device.Serial())
	tr := gtree.New(2)
	tr.Nodes[0].Name = "sA"
	tr.Nodes[1].Name = "sB"
	tr.Nodes[2].Age = 1
	tr.Nodes[2].Child = [2]int{0, 1}
	tr.Nodes[0].Parent = 2
	tr.Nodes[1].Parent = 2
	tr.Root = 2
	if _, err := Run(NewMH(eval), tr, ChainConfig{Theta: 1, Samples: 1}); err == nil {
		t.Error("2-tip tree accepted: no resimulatable neighbourhood exists")
	}
}

func TestSampleSetBookkeeping(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 61)
	res, err := Run(NewMH(eval), init, ChainConfig{Theta: 1, Burnin: 10, Samples: 25, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples.Len() != 35 {
		t.Errorf("Len = %d, want 35", res.Samples.Len())
	}
	if got := len(res.Samples.PostBurninStats()); got != 25 {
		t.Errorf("post-burn-in = %d, want 25", got)
	}
	if res.Final == nil || res.Final.Validate() != nil {
		t.Error("final state missing or invalid")
	}
	if res.Proposals != 35 {
		t.Errorf("Proposals = %d, want 35", res.Proposals)
	}
}

func TestEMRecoversTheta(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	// End-to-end: simulate data at a known theta, run the full EM with
	// the GMH sampler, and demand the estimate lands within a factor
	// band. The paper's own Table 1 shows deviations up to ~1.8x (true
	// 3.0 estimated 5.4), so the band is generous but one-sided checks
	// would still catch sign/scale errors.
	trueTheta := 1.0
	aln, _, err := seqgen.SimulateData(8, 300, trueTheta, 81)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(8)
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 0.1, 82)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEM(NewGMH(eval, dev, 8), init, EMConfig{
		InitialTheta: 0.1, // driving value far from truth, like Fig. 5
		Iterations:   6,
		Burnin:       800,
		Samples:      6000,
		Seed:         83,
	}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta < trueTheta/3 || res.Theta > trueTheta*3 {
		t.Errorf("EM estimate %v too far from true theta %v", res.Theta, trueTheta)
	}
	if len(res.History) == 0 || res.LastSet == nil || res.FinalState == nil {
		t.Error("EM result missing history or state")
	}
	// Theta must have moved towards the truth from the far-off start.
	if math.Abs(res.Theta-trueTheta) >= math.Abs(0.1-trueTheta) {
		t.Errorf("EM did not improve on the initial estimate: %v", res.Theta)
	}
}

func TestInitialTreeFromData(t *testing.T) {
	aln, _, err := seqgen.SimulateData(6, 120, 1.0, 91)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := InitialTree(aln, 1.0, 92)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NTips() != 6 {
		t.Errorf("NTips = %d, want 6", tr.NTips())
	}
	// UPGMA over diverged data must give the tree height in per-site
	// units: positive and below, say, 10 substitutions per site.
	if h := tr.Height(); h <= 0 || h > 10 {
		t.Errorf("UPGMA height = %v out of plausible range", h)
	}
}

func TestInitialTreeIdenticalSequencesFallsBack(t *testing.T) {
	a := &phylip.Alignment{}
	for i := 0; i < 4; i++ {
		a.Names = append(a.Names, "s"+string(rune('A'+i)))
		a.Seqs = append(a.Seqs, bitseq.FromString("ACGTACGT"))
	}
	tr, err := InitialTree(a, 2.0, 93)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() <= 0 {
		t.Error("fallback tree has no height")
	}
}

func TestRunEMValidation(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 94)
	if _, err := RunEM(NewMH(eval), init, EMConfig{InitialTheta: 0}, device.Serial()); err == nil {
		t.Error("EM accepted non-positive initial theta")
	}
}
