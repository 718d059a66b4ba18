package felsen

import (
	"math"
	"testing"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/rng"
	"mpcgs/internal/subst"
)

func mustAln(t *testing.T, names []string, seqs []string) *phylip.Alignment {
	t.Helper()
	a := &phylip.Alignment{Names: names}
	for _, s := range seqs {
		a.Seqs = append(a.Seqs, bitseq.FromString(s))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func mustEval(t *testing.T, model subst.Model, aln *phylip.Alignment, dev *device.Device) *Evaluator {
	t.Helper()
	e, err := New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// twoTipTree builds (a:h, b:h) with root age h.
func twoTipTree(t *testing.T, h float64) *gtree.Tree {
	t.Helper()
	tr := gtree.New(2)
	tr.Nodes[0].Name = "a"
	tr.Nodes[1].Name = "b"
	tr.Nodes[2].Age = h
	tr.Nodes[2].Child = [2]int{0, 1}
	tr.Nodes[0].Parent = 2
	tr.Nodes[1].Parent = 2
	tr.Root = 2
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTwoTipHandComputed(t *testing.T) {
	// Single site, tips A and G, root age h: the likelihood is
	// sum_x pi_x P_xA(h) P_xG(h), directly computable from the model.
	aln := mustAln(t, []string{"a", "b"}, []string{"A", "G"})
	model, err := subst.NewF81(subst.Uniform, false)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, model, aln, device.Serial())
	h := 0.8
	tr := twoTipTree(t, h)

	var p subst.Matrix
	model.TransitionInto(h, &p)
	want := 0.0
	for x := 0; x < 4; x++ {
		want += 0.25 * p[x][bitseq.A] * p[x][bitseq.G]
	}
	got := e.LogLikelihood(tr)
	if math.Abs(got-math.Log(want)) > 1e-12 {
		t.Errorf("logL = %v, want %v", got, math.Log(want))
	}
}

func TestIdenticalSequencesMoreLikelyOnShortTree(t *testing.T) {
	aln := mustAln(t, []string{"a", "b"}, []string{"ACGTACGT", "ACGTACGT"})
	e := mustEval(t, subst.NewJC69(), aln, device.Serial())
	short := e.LogLikelihood(twoTipTree(t, 0.01))
	long := e.LogLikelihood(twoTipTree(t, 2.0))
	if short <= long {
		t.Errorf("identical data: short tree logL %v should exceed long tree %v", short, long)
	}
}

func TestDivergedSequencesPreferLongTree(t *testing.T) {
	aln := mustAln(t, []string{"a", "b"}, []string{"ACGTACGT", "TGCATGCA"})
	e := mustEval(t, subst.NewJC69(), aln, device.Serial())
	short := e.LogLikelihood(twoTipTree(t, 0.01))
	long := e.LogLikelihood(twoTipTree(t, 2.0))
	if long <= short {
		t.Errorf("fully diverged data: long tree logL %v should exceed short tree %v", long, short)
	}
}

func randomAlignment(src rng.Source, n, L int) *phylip.Alignment {
	a := &phylip.Alignment{}
	letters := "ACGT"
	for i := 0; i < n; i++ {
		buf := make([]byte, L)
		for j := range buf {
			buf[j] = letters[rng.Intn(src, 4)]
		}
		a.Names = append(a.Names, "s"+string(rune('A'+i)))
		a.Seqs = append(a.Seqs, bitseq.FromString(string(buf)))
	}
	return a
}

func TestPruningMatchesBruteForce(t *testing.T) {
	src := rng.NewMT19937(100)
	models := map[string]subst.Model{
		"JC69": subst.NewJC69(),
	}
	if f81, err := subst.NewF81([4]float64{0.1, 0.2, 0.3, 0.4}, true); err == nil {
		models["F81"] = f81
	}
	if f84, err := subst.NewF84([4]float64{0.15, 0.35, 0.25, 0.25}, 2.0, true); err == nil {
		models["F84"] = f84
	}
	for name, model := range models {
		for trial := 0; trial < 10; trial++ {
			n := 3 + rng.Intn(src, 3) // 3-5 tips
			names := make([]string, n)
			for i := range names {
				names[i] = "t" + string(rune('a'+i))
			}
			tr, err := gtree.RandomCoalescent(names, 1.0, src)
			if err != nil {
				t.Fatal(err)
			}
			aln := randomAlignment(src, n, 6)
			e := mustEval(t, model, aln, device.Serial())
			got := e.LogLikelihood(tr)
			want, err := BruteForceLogLikelihood(model, aln.Seqs, tr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("%s trial %d: pruning %v != brute force %v", name, trial, got, want)
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	src := rng.NewMT19937(101)
	n, L := 8, 100
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i))
	}
	tr, err := gtree.RandomCoalescent(names, 1.0, src)
	if err != nil {
		t.Fatal(err)
	}
	aln := randomAlignment(src, n, L)
	for _, workers := range []int{1, 2, 8, 24} {
		e := mustEval(t, subst.NewJC69(), aln, device.New(workers))
		serial := e.LogLikelihoodSerial(tr)
		parallel := e.LogLikelihood(tr)
		if math.Abs(serial-parallel) > 1e-9*math.Abs(serial) {
			t.Errorf("workers=%d: serial %v != parallel %v", workers, serial, parallel)
		}
	}
}

func TestMissingDataSiteContributesZeroLog(t *testing.T) {
	aln := mustAln(t, []string{"a", "b"}, []string{"A-", "A-"})
	e := mustEval(t, subst.NewJC69(), aln, device.Serial())
	tr := twoTipTree(t, 0.5)
	dst := make([]float64, 2)
	e.SiteLogLikelihoods(tr, dst)
	if math.Abs(dst[1]) > 1e-12 {
		t.Errorf("all-missing site logL = %v, want 0 (likelihood 1)", dst[1])
	}
	if dst[0] >= 0 {
		t.Errorf("known site logL = %v, want < 0", dst[0])
	}
}

func TestPartialMissingData(t *testing.T) {
	// A site missing in one tip marginalizes that tip: equals the
	// single-tip stationary probability under the model.
	aln := mustAln(t, []string{"a", "b"}, []string{"A", "-"})
	model, err := subst.NewF81([4]float64{0.4, 0.3, 0.2, 0.1}, true)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, model, aln, device.Serial())
	tr := twoTipTree(t, 0.5)
	got := e.LogLikelihood(tr)
	// Marginalizing tip b leaves sum_x pi_x P_xA(h) = pi_A (stationarity).
	if math.Abs(got-math.Log(0.4)) > 1e-12 {
		t.Errorf("logL = %v, want log(0.4) = %v", got, math.Log(0.4))
	}
}

func TestSiteLogLikelihoodsSumToTotal(t *testing.T) {
	src := rng.NewMT19937(102)
	aln := randomAlignment(src, 5, 40)
	names := aln.Names
	tr, err := gtree.RandomCoalescent(names, 1.0, src)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, subst.NewJC69(), aln, device.New(4))
	dst := make([]float64, aln.SeqLen())
	e.SiteLogLikelihoods(tr, dst)
	sum := 0.0
	for _, v := range dst {
		sum += v
	}
	total := e.LogLikelihood(tr)
	if math.Abs(sum-total) > 1e-9*math.Abs(total) {
		t.Errorf("site sum %v != total %v", sum, total)
	}
}

func TestDeepTreeNoUnderflow(t *testing.T) {
	// 64 tips with long branches: naive per-site products would underflow;
	// the rescaling path must keep the result finite.
	src := rng.NewMT19937(103)
	n := 64
	names := make([]string, n)
	for i := range names {
		names[i] = "t" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	tr, err := gtree.RandomCoalescent(names, 20.0, src)
	if err != nil {
		t.Fatal(err)
	}
	aln := randomAlignment(src, n, 30)
	e := mustEval(t, subst.NewJC69(), aln, device.New(8))
	logL := e.LogLikelihood(tr)
	if math.IsInf(logL, 0) || math.IsNaN(logL) {
		t.Errorf("deep tree logL = %v, want finite", logL)
	}
	if logL >= 0 {
		t.Errorf("logL = %v, want negative", logL)
	}
}

func TestConcurrentEvaluations(t *testing.T) {
	// The evaluator must support concurrent LogLikelihoodSerial calls on
	// different trees: this is how proposal threads use it.
	src := rng.NewMT19937(104)
	aln := randomAlignment(src, 6, 50)
	trees := make([]*gtree.Tree, 16)
	want := make([]float64, 16)
	e := mustEval(t, subst.NewJC69(), aln, device.Serial())
	for i := range trees {
		tr, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
		want[i] = e.LogLikelihoodSerial(tr)
	}
	got := make([]float64, 16)
	outer := device.New(8)
	outer.Launch(16, func(i int) {
		got[i] = e.LogLikelihoodSerial(trees[i])
	})
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tree %d: concurrent %v != sequential %v", i, got[i], want[i])
		}
	}
}

func TestCheckTree(t *testing.T) {
	aln := mustAln(t, []string{"a", "b"}, []string{"ACGT", "ACGA"})
	e := mustEval(t, subst.NewJC69(), aln, device.Serial())
	if err := e.CheckTree(twoTipTree(t, 1)); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	src := rng.NewMT19937(105)
	big, err := gtree.RandomCoalescent([]string{"a", "b", "c"}, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckTree(big); err == nil {
		t.Error("tip-count mismatch not caught")
	}
}

func TestNewErrors(t *testing.T) {
	aln := mustAln(t, []string{"a", "b"}, []string{"AC", "GT"})
	if _, err := New(nil, aln, nil); err == nil {
		t.Error("nil model accepted")
	}
	bad := &phylip.Alignment{Names: []string{"a"}, Seqs: []*bitseq.Seq{bitseq.FromString("AC")}}
	if _, err := New(subst.NewJC69(), bad, nil); err == nil {
		t.Error("invalid alignment accepted")
	}
}

func TestBruteForceRefusesLargeTrees(t *testing.T) {
	src := rng.NewMT19937(106)
	names := make([]string, 10)
	for i := range names {
		names[i] = "t" + string(rune('a'+i))
	}
	tr, err := gtree.RandomCoalescent(names, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	aln := randomAlignment(src, 10, 4)
	if _, err := BruteForceLogLikelihood(subst.NewJC69(), aln.Seqs, tr); err == nil {
		t.Error("brute force accepted a 9-interior-node tree")
	}
}
