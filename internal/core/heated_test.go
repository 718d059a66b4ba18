package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

func TestHeatedFlatDataSamplesPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// With a flat likelihood every tempered posterior equals the prior,
	// so the cold chain must reproduce Kingman moments and every swap
	// must be accepted.
	theta := 1.4
	dev := device.New(4)
	eval := flatEvaluator(t, 5, dev)
	init := startTree(t, names(5), theta, 211)
	h := NewHeated(eval, dev, 4)
	res, err := Run(h, init, ChainConfig{Theta: theta, Burnin: 500, Samples: 30000, Seed: 212})
	if err != nil {
		t.Fatal(err)
	}
	checkPriorMoments(t, "Heated", res.Samples, theta)
	if res.SwapAttempts == 0 {
		t.Fatal("no swap attempts recorded")
	}
	if res.Swaps != res.SwapAttempts {
		t.Errorf("flat data: %d of %d swaps accepted, want all", res.Swaps, res.SwapAttempts)
	}
}

func TestHeatedSingleChainMatchesPosterior(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// P=1 heated sampling is plain MH; with more chains the cold chain
	// must still target the same posterior. Compare posterior means.
	aln, _, err := seqgen.SimulateData(6, 100, 1.0, 221)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(4)
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 222)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Theta: 1.0, Burnin: 2000, Samples: 20000, Seed: 223}
	mh, err := Run(NewMH(eval), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	heated, err := Run(NewHeated(eval, dev, 4), init, cfg)
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
	b := mean(heated.Samples.PostBurninStats())
	if math.Abs(a-b) > 0.10*math.Max(a, b) {
		t.Errorf("posterior mean SumKKT: MH %v vs heated %v (>10%% apart)", a, b)
	}
}

func TestHeatedDeterministicAcrossWorkers(t *testing.T) {
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 231)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 232)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Theta: 1.0, Burnin: 50, Samples: 300, Seed: 233}
	var ref []float64
	for _, workers := range []int{1, 4} {
		dev := device.New(workers)
		eval, err := felsen.New(subst.NewJC69(), aln, dev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(NewHeated(eval, dev, 3), init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Samples.Stats
			continue
		}
		for i := range ref {
			if res.Samples.Stats[i] != ref[i] {
				t.Fatalf("workers=%d: draw %d differs", workers, i)
			}
		}
	}
}

func TestHeatedSwapsImproveColdChainMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	// On real data the heated ladder should accept a healthy fraction of
	// swaps (the ladder is doing work) without degrading the posterior.
	aln, _, err := seqgen.SimulateData(8, 200, 1.0, 241)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(4)
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 242)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeated(eval, dev, 4)
	res, err := Run(h, init, ChainConfig{Theta: 1.0, Burnin: 500, Samples: 5000, Seed: 243})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.Swaps) / float64(res.SwapAttempts)
	if rate <= 0.05 {
		t.Errorf("swap acceptance %v suspiciously low: ladder not exchanging", rate)
	}
}

func TestHeatedValidation(t *testing.T) {
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 251)
	good := ChainConfig{Theta: 1, Burnin: 1, Samples: 2}
	if _, err := Run(NewHeated(eval, device.Serial(), 0), init, good); err == nil {
		t.Error("0 chains accepted")
	}
	for _, maxTemp := range []float64{0.5, -1, -8} {
		h := NewHeated(eval, device.Serial(), 2)
		h.MaxTemp = maxTemp
		if _, err := Run(h, init, good); err == nil {
			t.Errorf("MaxTemp %v accepted", maxTemp)
		}
	}
	h := NewHeated(eval, device.Serial(), 2)
	h.SwapEvery = -1
	if _, err := Run(h, init, good); err == nil {
		t.Error("negative SwapEvery accepted")
	}
	h = NewHeated(eval, device.Serial(), 2)
	h.SwapWindow = -5
	if _, err := Run(h, init, good); err == nil {
		t.Error("negative SwapWindow accepted")
	}
	if _, err := Run(NewHeated(eval, device.Serial(), 2), init, ChainConfig{Theta: 0, Samples: 1}); err == nil {
		t.Error("bad chain config accepted")
	}
}

func TestHeatedSingleChainNoSwaps(t *testing.T) {
	// Chains=1 reduces to plain MH: no swap attempts, no pair counters,
	// a single all-cold rung — with and without adaptation (there is
	// nothing to adapt).
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 261)
	cfg := ChainConfig{Theta: 1, Burnin: 10, Samples: 50, Seed: 262}
	for _, adapt := range []bool{false, true} {
		h := NewHeated(eval, device.Serial(), 1)
		h.Adapt = adapt
		res, err := Run(h, init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SwapAttempts != 0 {
			t.Errorf("adapt=%v: single-chain run attempted %d swaps", adapt, res.SwapAttempts)
		}
		if len(res.PairSwapAttempts) != 0 || len(res.EstPairSwapAttempts) != 0 {
			t.Errorf("adapt=%v: single-chain run has pair counters %v / %v",
				adapt, res.PairSwapAttempts, res.EstPairSwapAttempts)
		}
		if len(res.Betas) != 1 || res.Betas[0] != 1 {
			t.Errorf("adapt=%v: single-chain ladder betas %v, want [1]", adapt, res.Betas)
		}
	}
}

func TestHeatedMaxTemp1AllColdLadder(t *testing.T) {
	// MaxTemp=1 makes every rung target the untempered posterior: all
	// betas stay exactly 1 (even with adaptation on — a flat ladder has
	// no temperature span to redistribute) and every attempted swap
	// between identical targets is accepted.
	aln, _, err := seqgen.SimulateData(5, 60, 1.0, 271)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(subst.NewJC69(), aln, device.Serial())
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialTree(aln, 1.0, 272)
	if err != nil {
		t.Fatal(err)
	}
	for _, adapt := range []bool{false, true} {
		h := NewHeated(eval, device.Serial(), 3)
		h.MaxTemp = 1
		h.Adapt = adapt
		res, err := Run(h, init, ChainConfig{Theta: 1, Burnin: 30, Samples: 120, Seed: 273})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range res.Betas {
			if b != 1 {
				t.Errorf("adapt=%v: all-cold ladder rung %d has beta %v", adapt, i, b)
			}
		}
		if res.SwapAttempts == 0 {
			t.Fatalf("adapt=%v: no swap attempts", adapt)
		}
		if res.Swaps != res.SwapAttempts {
			t.Errorf("adapt=%v: %d of %d swaps accepted between identical targets, want all",
				adapt, res.Swaps, res.SwapAttempts)
		}
	}
}

func TestHeatedSwapCounterBookkeepingSwapEvery(t *testing.T) {
	// SwapEvery=3 over 20+40 steps: attempts land exactly at steps
	// 0, 3, 6, ..., and the per-pair breakdown (total and
	// estimation-phase) must sum to the aggregates.
	eval := flatEvaluator(t, 4, device.Serial())
	init := startTree(t, names(4), 1, 281)
	burnin, samples, swapEvery := 20, 40, 3
	h := NewHeated(eval, device.Serial(), 3)
	h.SwapEvery = swapEvery
	res, err := Run(h, init, ChainConfig{Theta: 1, Burnin: burnin, Samples: samples, Seed: 282})
	if err != nil {
		t.Fatal(err)
	}
	total := burnin + samples
	wantAttempts, wantEst := 0, 0
	for step := 0; step < total; step++ {
		if step%swapEvery == 0 {
			wantAttempts++
			if step >= burnin {
				wantEst++
			}
		}
	}
	if res.SwapAttempts != wantAttempts {
		t.Errorf("SwapAttempts %d, want %d", res.SwapAttempts, wantAttempts)
	}
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return
	}
	if got := sum(res.PairSwapAttempts); got != int64(wantAttempts) {
		t.Errorf("per-pair attempts sum to %d, want %d", got, wantAttempts)
	}
	if got := sum(res.PairSwaps); got != int64(res.Swaps) {
		t.Errorf("per-pair swaps sum to %d, want %d", got, res.Swaps)
	}
	if got := sum(res.EstPairSwapAttempts); got != int64(wantEst) {
		t.Errorf("estimation-phase attempts sum to %d, want %d", got, wantEst)
	}
	for i := range res.PairSwapAttempts {
		if res.EstPairSwapAttempts[i] > res.PairSwapAttempts[i] {
			t.Errorf("pair %d: estimation-phase attempts %d exceed total %d",
				i, res.EstPairSwapAttempts[i], res.PairSwapAttempts[i])
		}
		if res.PairSwaps[i] > res.PairSwapAttempts[i] {
			t.Errorf("pair %d: %d swaps of %d attempts", i, res.PairSwaps[i], res.PairSwapAttempts[i])
		}
	}
}

// heatedFixedOracle replays the pre-refactor heated run loop — the fixed
// geometric ladder inlined into the stepper, exactly as it was before
// the tempering controller existed — as the equivalence oracle of the
// refactor: Heated with Adapt off must reproduce it bit for bit.
func heatedFixedOracle(eval *felsen.Evaluator, dev *device.Device, init *gtree.Tree, cfg ChainConfig, p int, maxTemp float64, swapEvery int) *Result {
	betas := make([]float64, p)
	for i := range betas {
		if p == 1 {
			betas[i] = 1
			break
		}
		betas[i] = math.Pow(maxTemp, -float64(i)/float64(p-1))
	}
	states := newChainLadder(eval, init, p)
	for i := range states {
		states[i].beta = betas[i]
	}
	host := seedSource(cfg.Seed, 5)
	streams := rng.NewStreamSet(p, cfg.Seed^0xc2b2ae3d27d4eb4f)
	accepted := make([]bool, p)
	rec, err := newRecorder(init.NTips(), cfg)
	if err != nil {
		panic(err)
	}
	res := &Result{Samples: rec.set}
	theta := cfg.Theta
	kernel := func(i int) {
		acc, _ := states[i].step(theta, streams.Stream(i))
		accepted[i] = acc
	}
	total := cfg.Burnin + cfg.Samples
	for step := 0; step < total; step++ {
		dev.Launch(p, kernel)
		res.Proposals += p
		if accepted[0] {
			res.Accepted++
		}
		if p > 1 && step%swapEvery == 0 {
			i := rng.Intn(host, p-1)
			j := i + 1
			logr := (betas[i] - betas[j]) * (states[j].logLik - states[i].logLik)
			if logr >= 0 || host.Float64() < math.Exp(logr) {
				states[i], states[j] = states[j], states[i]
				states[i].beta, states[j].beta = betas[i], betas[j]
				res.Swaps++
			}
			res.SwapAttempts++
		}
		if err := rec.recordState(states[0]); err != nil {
			panic(err)
		}
	}
	res.Final = states[0].cur.Clone()
	return res
}

func TestHeatedFixedLadderMatchesPreRefactorOracle(t *testing.T) {
	// The ladder-controller refactor must not change a single bit of a
	// non-adaptive run: same draws, same counters, same final genealogy
	// as the historical inline fixed-ladder loop.
	dev := device.New(3)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 80, 291, dev)
	for _, tc := range []struct {
		p         int
		maxTemp   float64
		swapEvery int
	}{
		{3, 8, 1},
		{4, 20, 1},
		{3, 8, 5},
		{1, 8, 1},
	} {
		cfg := ChainConfig{Theta: 1.0, Burnin: 30, Samples: 150, Seed: 292}
		want := heatedFixedOracle(eval, dev, init, cfg, tc.p, tc.maxTemp, tc.swapEvery)
		h := NewHeated(eval, dev, tc.p)
		if tc.maxTemp != 8 {
			h.MaxTemp = tc.maxTemp
		}
		if tc.swapEvery != 1 {
			h.SwapEvery = tc.swapEvery
		}
		got, err := Run(h, init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("p=%d maxTemp=%v swapEvery=%d", tc.p, tc.maxTemp, tc.swapEvery)
		sameTraces(t, label, want.Samples, got.Samples, 0)
		if got.Accepted != want.Accepted || got.Proposals != want.Proposals ||
			got.Swaps != want.Swaps || got.SwapAttempts != want.SwapAttempts {
			t.Errorf("%s: counters differ: got %+v want %+v", label,
				[4]int{got.Accepted, got.Proposals, got.Swaps, got.SwapAttempts},
				[4]int{want.Accepted, want.Proposals, want.Swaps, want.SwapAttempts})
		}
		if want.Final.String() != got.Final.String() {
			t.Errorf("%s: final genealogy differs", label)
		}
	}
}

func TestHeatedAdaptiveKillResumeBitIdentical(t *testing.T) {
	// The adapted ladder is runtime state: interrupting an adaptive run
	// at any step boundary — mid-adaptation, right at the freeze, after
	// it — and restoring into a fresh stepper must reproduce the
	// uninterrupted run bit for bit, including the per-pair swap
	// diagnostics and the adapted schedule itself.
	dev := device.New(3)
	defer dev.Close()
	eval, init := engineFixture(t, 6, 80, 295, dev)
	cfg := ChainConfig{Theta: 1.0, Burnin: 60, Samples: 120, Seed: 296}
	h := NewHeated(eval, dev, 4)
	h.Adapt = true
	h.MaxTemp = 32
	h.SwapWindow = 8 // small window so adaptation engages within burn-in

	want, err := Run(h, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kill := range []int{0, 1, 35, 60, 130} {
		run, err := h.Start(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill && !run.Done(); i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := mustSnapshot(t, run)
		resumed, err := h.Start(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(snap); err != nil {
			t.Fatal(err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := resumed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, fmt.Sprintf("adaptive kill=%d", kill), want, got)
	}

	// A snapshot without ladder state must be rejected by an adaptive
	// run and by a non-adaptive one alike, and a non-adaptive run must
	// refuse an adaptive snapshot.
	run, err := h.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, run)
	noLadder := *snap
	noLadder.Ladder = nil
	fresh, err := h.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&noLadder); err == nil {
		t.Error("adaptive run restored a snapshot without ladder state")
	}
	plain := NewHeated(eval, dev, 4)
	plain.MaxTemp = 32
	plainRun, err := plain.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plainRun.Restore(snap); err == nil {
		t.Error("non-adaptive run restored an adaptive ladder snapshot")
	}
	plainRun, err = plain.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plainSnap := mustSnapshot(t, plainRun)
	plainSnap.Ladder = nil
	plainFresh, err := plain.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plainFresh.Restore(plainSnap); err == nil || !strings.Contains(err.Error(), "no ladder state") {
		t.Errorf("non-adaptive run restored a snapshot without ladder state: %v", err)
	}
}
