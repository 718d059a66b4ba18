package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// Verdicts of a compared (workload, metric) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// Pairing rule for claiming a gain: at least minPairs alternating
// base/head pairs, the head winning at least winShare of them, and the
// medians further apart than the base runs' interquartile range.
const (
	minPairs = 10
	winShare = 0.9
)

// reportedMetrics are the end-to-end metrics that only some workloads
// report, with the bounds compare holds them to. BENCHMARK.json declares
// only metrics that every workload reports, because its runner requires
// each declared metric from each workload, so these bounds live here.
var reportedMetrics = []metricSpec{
	{Name: "estimate_s", Unit: "s", Better: "lower", Bound: bound(0.10)},
	{Name: "ess_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.10)},
	{Name: "scaling_eff", Unit: "ratio", Better: "higher", Bound: bound(0.10)},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: bound(0.10)},
	{Name: "job_latency_p50_s", Unit: "s", Better: "lower", Bound: bound(0.10)},
	{Name: "job_latency_p90_s", Unit: "s", Better: "lower", Bound: bound(0.15)},
	{Name: "restart_s", Unit: "s", Better: "lower", Bound: bound(0.10)},
}

// floors are absolute changes below which a bounded metric is not judged
// regressed, whatever its relative change: a few milliseconds of start-up
// time are noise however large a share they are.
var floors = map[string]float64{"setup_s": 0.020, "restart_s": 0.020}

func bound(b float64) *float64 { return &b }

// compareRow is one (workload, run kind, metric) comparison.
type compareRow struct {
	Workload string
	Trace    bool
	Seed     uint64
	Metric   string
	Unit     string
	Pairs    int
	Wins     int
	Losses   int
	BaseMed  float64
	HeadMed  float64
	BaseIQR  float64
	Bound    *float64
	Verdict  string
	Reason   string
}

// runGroup is the set of runs compare pairs up: the same workload, run
// kind, seed, scale and time budget.
type runGroup struct {
	Workload string
	Trace    bool
	Seed     uint64
	Scale    string
	Seconds  int
}

func groupOf(r runResult) runGroup {
	return runGroup{r.Workload, r.Trace, r.Seed, r.Scale, r.Seconds}
}

// compareRuns pairs the i-th correct base run of each group with its
// i-th correct head run and judges every metric BENCHMARK.json declares
// for the run kind, and, untraced, every metric of reportedMetrics. A
// pair counts for a metric only when both runs report it. Runs that
// failed a check are left out of the pairs but count in the failures.
//
//   - improved: the pairing rule holds and the head failed no more
//     operations than the base;
//   - regressed: the head median is worse than the base median by more
//     than the metric's bound (for per-layer metrics, which have no
//     bound: the pairing rule holds in the base's favour);
//   - unresolved: the base runs' own spread is wider than the bound and
//     not every head run beats every base run;
//   - unchanged: otherwise.
func compareRuns(base, head []runResult, spec *benchSpec) []compareRow {
	group := func(runs []runResult) (map[runGroup][]runResult, []runGroup) {
		out := make(map[runGroup][]runResult)
		var order []runGroup
		for _, r := range runs {
			k := groupOf(r)
			if _, ok := out[k]; !ok {
				order = append(order, k)
			}
			out[k] = append(out[k], r)
		}
		return out, order
	}
	bg, order := group(base)
	hg, _ := group(head)
	var rows []compareRow
	for _, k := range order {
		bs, hs := bg[k], hg[k]
		if len(hs) == 0 {
			continue
		}
		failedMore := failedOps(hs)*len(bs) > failedOps(bs)*len(hs)
		bs, hs = correct(bs), correct(hs)
		specs := spec.metricSpecs(k.Trace)
		if !k.Trace {
			specs = append(append([]metricSpec(nil), specs...), reportedMetrics...)
		}
		for _, d := range specs {
			b, h := pairValues(bs, hs, d.Name)
			if len(b) == 0 {
				continue
			}
			row := judge(k.Workload, k.Trace, d, b, h, failedMore)
			row.Seed = k.Seed
			rows = append(rows, row)
		}
	}
	return rows
}

func failedOps(runs []runResult) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

func correct(runs []runResult) []runResult {
	var out []runResult
	for _, r := range runs {
		if r.Correct {
			out = append(out, r)
		}
	}
	return out
}

// pairValues returns the metric's values from the pairs (bs[i], hs[i])
// in which both runs report it.
func pairValues(bs, hs []runResult, metric string) (b, h []float64) {
	for i := 0; i < min(len(bs), len(hs)); i++ {
		mb, okb := bs[i].Metrics[metric]
		mh, okh := hs[i].Metrics[metric]
		if okb && okh {
			b, h = append(b, mb.Value), append(h, mh.Value)
		}
	}
	return b, h
}

// judge applies the verdict rules of compareRuns to one row, whose base
// and head values b and h are paired by index.
func judge(workload string, trace bool, d metricSpec, b, h []float64, failedMore bool) compareRow {
	dir := 1.0 // +1 when higher is better
	if d.Better == "lower" {
		dir = -1
	}
	row := compareRow{Workload: workload, Trace: trace, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		Pairs: len(b), BaseMed: median(b), HeadMed: median(h)}
	if len(b) > 1 {
		q1, _, q3 := quartiles(b)
		row.BaseIQR = q3 - q1
	}
	for i := 0; i < row.Pairs; i++ {
		switch diff := (h[i] - b[i]) * dir; {
		case diff > 0:
			row.Wins++
		case diff < 0:
			row.Losses++
		}
	}
	gain := (row.HeadMed - row.BaseMed) * dir // > 0: head is better
	pairingRule := func(wins int, gain float64) bool {
		return row.Pairs >= minPairs && float64(wins) >= winShare*float64(row.Pairs) && gain > row.BaseIQR
	}
	switch {
	case pairingRule(row.Wins, gain) && !failedMore:
		row.Verdict, row.Reason = improved, fmt.Sprintf("won %d of %d pairs; median gain exceeds base IQR %.4g", row.Wins, row.Pairs, row.BaseIQR)
	case pairingRule(row.Wins, gain):
		row.Verdict, row.Reason = unresolved, "pairing rule met but the head failed more operations"
	case d.Bound == nil:
		if pairingRule(row.Losses, -gain) {
			row.Verdict, row.Reason = regressed, fmt.Sprintf("lost %d of %d pairs", row.Losses, row.Pairs)
		} else {
			row.Verdict, row.Reason = unchanged, "no bound; pairing rule not met either way"
		}
	default:
		bound := *d.Bound
		spread := row.BaseIQR / math.Abs(row.BaseMed)
		worse := -gain / math.Abs(row.BaseMed)
		switch {
		case spread > bound && !allBetter(b, h, dir):
			row.Verdict, row.Reason = unresolved, fmt.Sprintf("base spread %.3f exceeds bound %.3f", spread, bound)
		case worse > bound && -gain <= floors[d.Name]:
			row.Verdict, row.Reason = unchanged, fmt.Sprintf("%.1f%% worse but within the %g %s floor", 100*worse, floors[d.Name], d.Unit)
		case worse > bound:
			row.Verdict, row.Reason = regressed, fmt.Sprintf("%.1f%% worse, bound %.1f%%", 100*worse, 100*bound)
		default:
			row.Verdict, row.Reason = unchanged, fmt.Sprintf("within bound %.1f%%", 100*bound)
		}
	}
	return row
}

// allBetter reports whether every head value beats every base value.
func allBetter(b, h []float64, dir float64) bool {
	worstHead, bestBase := math.Inf(1), math.Inf(-1)
	for _, x := range h {
		worstHead = math.Min(worstHead, x*dir)
	}
	for _, x := range b {
		bestBase = math.Max(bestBase, x*dir)
	}
	return worstHead > bestBase
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(w)
	basePath := fs.String("base", "", "results file of the parent commit")
	headPath := fs.String("head", "", "results file of the change")
	specPath := fs.String("spec", "", "BENCHMARK.json (default: at the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(w, "compare: -base and -head are required")
		return 2
	}
	if *specPath == "" {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintf(w, "compare: %v\n", err)
			return 2
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	base, err := readResults(*basePath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	head, err := readResults(*headPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	if base.Machine.NProc != head.Machine.NProc || base.Machine.CPU != head.Machine.CPU {
		fmt.Fprintf(w, "warning: base measured on %d × %q, head on %d × %q\n",
			base.Machine.NProc, base.Machine.CPU, head.Machine.NProc, head.Machine.CPU)
	}
	rows := compareRuns(base.Runs, head.Runs, spec)
	printComparison(w, rows)
	for _, r := range rows {
		if r.Verdict == regressed && r.Bound != nil {
			return 1
		}
	}
	return 0
}

func printComparison(w io.Writer, rows []compareRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		if rows[i].Seed != rows[j].Seed {
			return rows[i].Seed < rows[j].Seed
		}
		return !rows[i].Trace && rows[j].Trace
	})
	counts := make(map[string]int)
	for _, r := range rows {
		counts[r.Verdict]++
		ratio := r.HeadMed / r.BaseMed
		fmt.Fprintf(w, "%-16s seed %-3d %-36s %-10s head/base = %.4f (base %.6g %s, head %.6g %s; %d pairs, %d won, %d lost) %s\n",
			r.Workload, r.Seed, r.Metric, r.Verdict, ratio, r.BaseMed, r.Unit, r.HeadMed, r.Unit, r.Pairs, r.Wins, r.Losses, r.Reason)
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
}
