package experiments

// The experiments are end-to-end workloads; these tests run miniature
// versions to validate shape properties (who wins, directions of trends)
// rather than absolute numbers, which is exactly the reproduction
// criterion for the paper's evaluation. The heavier checks are guarded by
// -short.

import (
	"slices"
	"strings"
	"testing"

	"mpcgs/internal/leakcheck"
)

func quick() Common { return Common{Scale: ScaleQuick, Workers: 8, Seed: 99} }

func TestSpeedupVsSeqLenShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	pts, err := SpeedupVsSeqLen(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Shape property from Fig. 16: the parallel sampler must win
	// everywhere, and speedup at the longest sequences must exceed the
	// shortest (the paper's headline trend).
	for _, p := range pts {
		if p.Speedup <= 1 {
			t.Errorf("bp=%d: speedup %v <= 1", p.Param, p.Speedup)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Speedup <= first.Speedup {
		t.Errorf("speedup not increasing with sequence length: %v at %d bp vs %v at %d bp",
			first.Speedup, first.Param, last.Speedup, last.Param)
	}
}

func TestSpeedupVsSamplesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	// Each speedup is a ratio of two single-shot wall times, which a
	// busy host can skew several-fold; take each point as the median
	// of three runs.
	var runs [3][]SpeedupPoint
	for i := range runs {
		pts, err := SpeedupVsSamples(quick())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = pts
	}
	median := func(k int) float64 {
		s := []float64{runs[0][k].Speedup, runs[1][k].Speedup, runs[2][k].Speedup}
		slices.Sort(s)
		return s[1]
	}
	// Fig. 14's shape: roughly flat. Allow wide slack but demand the
	// parallel sampler always wins and no collapse at high counts.
	pts := runs[0]
	for k, p := range pts {
		if m := median(k); m <= 1 {
			t.Errorf("samples=%d: median speedup %v <= 1", p.Param, m)
		}
	}
	first, last := median(0), median(len(pts)-1)
	if last < first/2 {
		t.Errorf("median speedup collapsed with sample count: %v -> %v", first, last)
	}
}

func TestMultichainEfficiencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	base := leakcheck.Snapshot()
	pts, err := MultichainEfficiency(quick())
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Verify(t, base)
	if len(pts) < 3 {
		t.Fatalf("got %d parallelism points", len(pts))
	}
	// Fig. 6's argument: at the highest parallelism, GMH must beat the
	// multichain approach (whose wall time is floored by burn-in).
	last := pts[len(pts)-1]
	if last.GMHSec >= last.MultichainSec {
		t.Errorf("at P=%d GMH (%vs) did not beat multichain (%vs)",
			last.P, last.GMHSec, last.MultichainSec)
	}
	// The Amdahl model is monotone decreasing towards the burn-in floor.
	for i := 1; i < len(pts); i++ {
		if pts[i].ModelWork >= pts[i-1].ModelWork {
			t.Errorf("Amdahl model not decreasing: %v then %v", pts[i-1].ModelWork, pts[i].ModelWork)
		}
	}
}

func TestLikelihoodCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling experiment")
	}
	// The default data seed's pass moves; seed 99's pass never does at
	// θ0 = 0.01, and a curve of its one genealogy must be refused.
	if _, err := LikelihoodCurve(Common{Scale: ScaleQuick, Workers: 2, Seed: 99}); err == nil || !strings.Contains(err.Error(), "accepted none") {
		t.Errorf("seed 99 at 2 workers: err %v, want the pass that never moved refused", err)
	}
	res, err := LikelihoodCurve(Common{Scale: ScaleQuick, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptanceRate <= 0 {
		t.Errorf("acceptance rate %v, want positive", res.AcceptanceRate)
	}
	// Fig. 5's shape: driven at theta0 = 0.01 with truth at 1.0, the
	// curve's maximum must sit far above the driving value.
	if res.ArgMax < 10*res.Theta0 {
		t.Errorf("curve argmax %v did not move above driving value %v", res.ArgMax, res.Theta0)
	}
	if len(res.Thetas) != len(res.LogL) {
		t.Fatalf("grid/value length mismatch")
	}
}

func TestBurninTraceRises(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling experiment")
	}
	res, err := BurninTrace(quick())
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Trace)
	if n < 100 {
		t.Fatalf("trace too short: %d", n)
	}
	// Fig. 2's shape: early draws are atypical; the chain's final
	// log-likelihood regime must be above the starting point.
	early := res.Trace[0]
	lateMean := 0.0
	for _, v := range res.Trace[n-n/4:] {
		lateMean += v
	}
	lateMean /= float64(n / 4)
	if lateMean <= early {
		t.Errorf("late mean %v not above cold start %v", lateMean, early)
	}
}

func TestAccuracySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full EM experiment")
	}
	res, err := Accuracy(Common{Scale: ScaleQuick, Workers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	// Both estimators must order with the truth: the paper's criterion
	// is a strong positive correlation (r = 0.905 there).
	if res.Pearson < 0.6 {
		t.Errorf("Pearson r = %v, want strong positive correlation", res.Pearson)
	}
	for _, row := range res.Rows {
		if row.LAMARC <= 0 || row.MPCGS <= 0 {
			t.Errorf("non-positive estimate in row %+v", row)
		}
	}
}

func TestProposalSetSizeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	base := leakcheck.Snapshot()
	pts, err := ProposalSetSize(quick())
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Verify(t, base)
	for _, p := range pts {
		if p.ESS <= 0 || p.Sec <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		if p.MoveRate < 0 || p.MoveRate > 1 {
			t.Errorf("move rate %v out of range", p.MoveRate)
		}
	}
}

func TestGrowthEstimationDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment")
	}
	base := leakcheck.Snapshot()
	pts, err := GrowthEstimation(quick())
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Verify(t, base)
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[1].Growth <= pts[0].Growth {
		t.Errorf("estimated growth on growing data (%v) not above constant data (%v)",
			pts[1].Growth, pts[0].Growth)
	}
}

func TestTemperingComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	// The acceptance criterion of the adaptive ladder: on the §6-scale
	// workload its estimation-phase swap rates are flatter across pairs
	// (smaller max−min spread) than the fixed geometric schedule's.
	pts, err := TemperingComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Mode != "fixed" || pts[1].Mode != "adaptive" {
		t.Fatalf("unexpected points: %+v", pts)
	}
	fixed, adaptive := pts[0], pts[1]
	if len(fixed.Rates) != len(adaptive.Rates) || len(fixed.Rates) == 0 {
		t.Fatalf("rate profiles ragged: %d vs %d pairs", len(fixed.Rates), len(adaptive.Rates))
	}
	if adaptive.Spread >= fixed.Spread {
		t.Errorf("adaptive ladder not flatter: spread %.3f vs fixed %.3f",
			adaptive.Spread, fixed.Spread)
	}
	// The adapted schedule must still be a valid pinned ladder.
	if adaptive.Betas[0] != 1 {
		t.Errorf("adapted cold rung beta %v", adaptive.Betas[0])
	}
	for i := 1; i < len(adaptive.Betas); i++ {
		if !(adaptive.Betas[i] > 0 && adaptive.Betas[i] < adaptive.Betas[i-1]) {
			t.Errorf("adapted betas not strictly decreasing: %v", adaptive.Betas)
		}
	}
}

// TestAutostopConverges: at quick scale at least half of each batch's
// targeted jobs must retire on their ESS target, or the experiment
// compares two fixed-length batches. The stop rule reads draws only, so
// which jobs converge does not depend on timing.
func TestAutostopConverges(t *testing.T) {
	pts, err := AutostopThroughput(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Targeted != p.Jobs-1 || 2*p.Converged < p.Targeted {
			t.Errorf("%d jobs: %d of %d targeted jobs converged, want at least half", p.Jobs, p.Converged, p.Targeted)
		}
	}
}
