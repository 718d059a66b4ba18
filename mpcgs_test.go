package mpcgs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mpcgs/internal/sched"
)

func TestSimulateAlignment(t *testing.T) {
	aln, err := SimulateAlignment(8, 150, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aln.NSeq() != 8 || aln.SeqLen() != 150 {
		t.Fatalf("alignment %dx%d, want 8x150", aln.NSeq(), aln.SeqLen())
	}
	if len(aln.Names()) != 8 {
		t.Errorf("Names() returned %d entries", len(aln.Names()))
	}
	if got := aln.Sequence(0); len(got) != 150 {
		t.Errorf("Sequence(0) length %d", len(got))
	}
}

func TestAlignmentRoundTrip(t *testing.T) {
	aln, err := SimulateAlignment(5, 80, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aln.WritePhylip(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAlignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < aln.NSeq(); i++ {
		if aln.Sequence(i) != back.Sequence(i) {
			t.Errorf("sequence %d changed in round trip", i)
		}
	}
}

func TestReadAlignmentError(t *testing.T) {
	if _, err := ReadAlignment(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadAlignmentMissingFile(t *testing.T) {
	if _, err := LoadAlignment("/nonexistent/path.phy"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunValidation(t *testing.T) {
	aln, err := SimulateAlignment(6, 60, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"nil alignment": {InitialTheta: 1},
		"zero theta":    {Alignment: aln},
		"bad sampler":   {Alignment: aln, InitialTheta: 1, Sampler: "bogus"},
		"bad model":     {Alignment: aln, InitialTheta: 1, Model: "bogus"},
		// Tempering knobs only mean something to the heated sampler.
		"tempering knob on gmh": {Alignment: aln, InitialTheta: 1, Sampler: SamplerGMH, MaxTemp: 4},
	}
	for label, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestRunMatchesStandalone pins Run to the scheduler's standalone run of
// the same job, for every sampler and model: θ, the full EM history, the
// final genealogy and the last pass's draws must be bit-identical, so a
// Config estimates exactly what the equivalent batch or daemon job does.
func TestRunMatchesStandalone(t *testing.T) {
	aln, err := SimulateAlignment(6, 60, 1.0, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []SamplerKind{SamplerGMH, SamplerMH, SamplerHeated, SamplerMultiChain} {
		for _, model := range []ModelKind{ModelF81, ModelJC69, ModelF84} {
			label := string(sampler) + "/" + string(model)
			got, err := Run(Config{
				Alignment: aln, InitialTheta: 0.8, Sampler: sampler, Model: model,
				Workers: 2, Proposals: 3, Chains: 2, Burnin: 20, Samples: 150, EMIterations: 2, Seed: 15,
			})
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}
			want, err := sched.RunStandalone(sched.Job{
				Alignment: aln.aln, InitialTheta: 0.8, Sampler: string(sampler), Model: string(model),
				Proposals: 3, Chains: 2, Burnin: 20, Samples: 150, EMIterations: 2, Seed: 15,
			}, 2)
			if err != nil {
				t.Fatalf("%s: RunStandalone: %v", label, err)
			}
			if got.Theta != want.Theta {
				t.Fatalf("%s: theta %v, standalone %v", label, got.Theta, want.Theta)
			}
			if len(got.History) != len(want.History) {
				t.Fatalf("%s: %d EM iterations, standalone %d", label, len(got.History), len(want.History))
			}
			for i, h := range want.History {
				if got.History[i] != EMIteration(h) {
					t.Fatalf("%s: EM iteration %d: %+v, standalone %+v", label, i, got.History[i], h)
				}
			}
			if tree := want.LastRun.Final.String(); got.FinalTree != tree {
				t.Fatalf("%s: final tree %s, standalone %s", label, got.FinalTree, tree)
			}
			a, b := got.lastSet, want.LastSet
			if a.Len() != b.Len() {
				t.Fatalf("%s: %d draws, standalone %d", label, a.Len(), b.Len())
			}
			for i := range a.Stats {
				if a.Stats[i] != b.Stats[i] || a.LogLik[i] != b.LogLik[i] {
					t.Fatalf("%s: draw %d differs", label, i)
				}
			}
		}
	}
}

func TestRunTooFewSequences(t *testing.T) {
	in := "2 4\na   ACGT\nb   ACGA\n"
	aln, err := ReadAlignment(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Alignment: aln, InitialTheta: 1}); err == nil {
		t.Error("2-sequence alignment accepted")
	}
}

func TestRunAllSamplers(t *testing.T) {
	aln, err := SimulateAlignment(6, 100, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SamplerKind{SamplerGMH, SamplerMH, SamplerMultiChain, SamplerHeated} {
		res, err := Run(Config{
			Alignment:    aln,
			InitialTheta: 0.5,
			Sampler:      kind,
			Workers:      4,
			Burnin:       100,
			Samples:      800,
			EMIterations: 2,
			Seed:         5,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Theta <= 0 || math.IsNaN(res.Theta) {
			t.Errorf("%s: theta = %v", kind, res.Theta)
		}
		if len(res.History) == 0 {
			t.Errorf("%s: empty history", kind)
		}
		if !strings.Contains(res.FinalTree, ";") {
			t.Errorf("%s: FinalTree %q is not Newick", kind, res.FinalTree)
		}
	}
}

func TestRunAllModels(t *testing.T) {
	aln, err := SimulateAlignment(6, 100, 1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ModelKind{ModelF81, ModelJC69, ModelF84} {
		res, err := Run(Config{
			Alignment:    aln,
			InitialTheta: 0.5,
			Model:        kind,
			Workers:      2,
			Burnin:       50,
			Samples:      400,
			EMIterations: 1,
			Seed:         7,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Theta <= 0 {
			t.Errorf("%s: theta = %v", kind, res.Theta)
		}
	}
}

func TestResultCurve(t *testing.T) {
	aln, err := SimulateAlignment(6, 100, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Alignment:    aln,
		InitialTheta: 0.5,
		Workers:      2,
		Burnin:       100,
		Samples:      1000,
		EMIterations: 1,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.1, 0.3, res.Theta, 3, 10}
	vals := res.Curve(grid)
	if len(vals) != len(grid) {
		t.Fatalf("Curve returned %d values for %d thetas", len(vals), len(grid))
	}
	// The final theta should score at least as well as the extremes.
	if vals[2] < vals[0] || vals[2] < vals[4] {
		t.Errorf("curve at estimate %v (%v) below extremes (%v, %v)", res.Theta, vals[2], vals[0], vals[4])
	}
}

func TestEstimateThetaEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	trueTheta := 1.0
	aln, err := SimulateAlignment(10, 400, trueTheta, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Alignment:    aln,
		InitialTheta: 0.2,
		Burnin:       500,
		Samples:      5000,
		EMIterations: 5,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta < trueTheta/3 || res.Theta > trueTheta*3 {
		t.Errorf("estimate %v too far from true %v", res.Theta, trueTheta)
	}
}

func TestRunDeterministic(t *testing.T) {
	aln, err := SimulateAlignment(6, 80, 1.0, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Alignment:    aln,
		InitialTheta: 0.5,
		Workers:      4,
		Burnin:       100,
		Samples:      600,
		EMIterations: 2,
		Seed:         13,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta != b.Theta {
		t.Errorf("same-seed runs differ: %v vs %v", a.Theta, b.Theta)
	}
}

func TestRunBayesian(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	trueTheta := 1.0
	aln, err := SimulateAlignment(8, 250, trueTheta, 55)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBayesian(Config{
		Alignment:    aln,
		InitialTheta: 1.0,
		Burnin:       1500,
		Samples:      8000,
		Seed:         56,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PosteriorMean <= 0 {
		t.Fatalf("posterior mean = %v", res.PosteriorMean)
	}
	if !(res.CredibleLow < res.PosteriorMedian && res.PosteriorMedian < res.CredibleHigh) {
		t.Errorf("credible interval disordered: %v %v %v",
			res.CredibleLow, res.PosteriorMedian, res.CredibleHigh)
	}
	if res.PosteriorMean < trueTheta/4 || res.PosteriorMean > trueTheta*4 {
		t.Errorf("posterior mean %v far from truth %v", res.PosteriorMean, trueTheta)
	}
	if len(res.Thetas) != 8000 {
		t.Errorf("got %d posterior draws, want 8000", len(res.Thetas))
	}
}

func TestRunBayesianValidation(t *testing.T) {
	if _, err := RunBayesian(Config{InitialTheta: 1}); err == nil {
		t.Error("nil alignment accepted")
	}
	aln, err := SimulateAlignment(4, 40, 1.0, 57)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBayesian(Config{Alignment: aln}); err == nil {
		t.Error("zero theta accepted")
	}
	// RunBayesian admits its settings through the scheduler's job gate:
	// a non-finite θ is refused by name, never handed to the chain.
	for label, cfg := range map[string]Config{
		"NaN theta":     {Alignment: aln, InitialTheta: math.NaN()},
		"Inf theta":     {Alignment: aln, InitialTheta: math.Inf(1)},
		"unknown model": {Alignment: aln, InitialTheta: 1, Model: "bogus"},
	} {
		_, err := RunBayesian(cfg)
		if err == nil {
			t.Errorf("%s: accepted", label)
			continue
		}
		want := "must be finite"
		if label == "unknown model" {
			want = `unknown model "bogus"`
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", label, err, want)
		}
	}
}

// TestDiagnosticsFrozenPass runs a GMH pass driven at θ0 = 0.01 on data
// where it never accepts a move, so its post-burn-in log-likelihood
// trace holds one value. Such a pass cannot be diagnosed: it must
// report ESS 0, Geweke z NaN, Frozen and an insufficient burn-in, not
// the ESS and z that rounding residue around the trace's mean yields.
func TestDiagnosticsFrozenPass(t *testing.T) {
	aln, err := SimulateAlignment(12, 200, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Alignment: aln, InitialTheta: 0.01, Workers: 2, EMIterations: 1, Burnin: 1000, Samples: 10000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.History[0].AcceptanceRate; rate != 0 {
		t.Fatalf("fixture: the pass accepted at rate %v; it must never move", rate)
	}
	d := res.Diagnostics
	if !d.Frozen || d.ESS != 0 || !math.IsNaN(d.GewekeZ) || d.BurninSufficient {
		t.Fatalf("frozen pass diagnosed as %+v, want Frozen, ESS 0, z NaN and BurninSufficient false", d)
	}
}
