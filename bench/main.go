// Command bench is the repository's benchmark: it runs the θ-estimation
// and mpcgsd workloads, checks their outputs, and reports end-to-end
// metrics (untraced) or per-layer metrics (with -trace). BENCHMARK.json
// at the repository root declares the workloads and metrics; README.md
// in this directory explains them.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace] [-out DIR]
//	go run . compare -base A.json -head B.json
//
// Each workload runs in its own child process (this binary, re-executed)
// with GOMAXPROCS and the device worker count set to the machine's CPU
// count. The last line of standard output is a JSON summary of the run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childOptions is everything a workload process needs to know.
type childOptions struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Scale    string
	Out      string
	Inputs   string
	Mpcgsd   string
	NProc    int
	Probe    bool
}

func (o childOptions) args() []string {
	return []string{
		"-child", "-workload", o.Workload, "-seed", strconv.FormatUint(o.Seed, 10),
		"-seconds", strconv.Itoa(o.Seconds), "-trace=" + strconv.FormatBool(o.Trace),
		"-scale", o.Scale, "-out", o.Out, "-inputs", o.Inputs, "-mpcgsd", o.Mpcgsd,
		"-probe=" + strconv.FormatBool(o.Probe),
	}
}

// setupProbes is how many extra times an estimation workload process is
// started only to time its set-up; setup_s is the median over these and
// the measuring process.
const setupProbes = 7

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

func main() {
	args := normalizeArgs(os.Args[1:])
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}
	if err := benchMain(args); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// normalizeArgs rewrites "-trace 0|1" as "-trace=0|1" so the trace
// switch reads both as a plain flag and with an explicit value.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o childOptions
	child := fs.Bool("child", false, "run as a workload process (internal)")
	fs.StringVar(&o.Workload, "workload", "", "workload to run (default: all)")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed: the inputs are made from it")
	fs.IntVar(&o.Seconds, "seconds", 0, "measured seconds per workload (default: BENCHMARK.json run_seconds)")
	fs.BoolVar(&o.Trace, "trace", false, "traced run: report per-layer metrics and write spans")
	fs.StringVar(&o.Scale, "scale", "full", "workload sizes: full, or tiny for the smoke test")
	fs.StringVar(&o.Out, "out", "", "output directory (default: .bench_out at the repository root)")
	fs.StringVar(&o.Inputs, "inputs", "", "input directory (internal)")
	fs.StringVar(&o.Mpcgsd, "mpcgsd", "", "mpcgsd binary (internal)")
	fs.BoolVar(&o.Probe, "probe", false, "stop once set up (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.NProc = runtime.NumCPU()
	if *child {
		return childMain(o)
	}
	return parentMain(o)
}

// findRoot locates the repository root: the directory holding
// BENCHMARK.json and this module's directory.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or its bench directory (no bench/go.mod found from %s)", wd)
}

func parentMain(o childOptions) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.Seconds <= 0 {
		o.Seconds = spec.RunSeconds
	}
	if o.Out == "" {
		o.Out = filepath.Join(root, ".bench_out")
	}
	if o.Out, err = filepath.Abs(o.Out); err != nil {
		return err
	}
	all, err := workloads(o.Scale)
	if err != nil {
		return err
	}
	selected := all
	if o.Workload != "" {
		w, err := findWorkload(all, o.Workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if w.Service {
			if o.Mpcgsd, err = buildMpcgsd(root); err != nil {
				return err
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	var runs []runResult
	spans := make(map[string]json.RawMessage)
	for _, w := range selected {
		res, err := runWorkload(self, o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		checkDeclared(&res, spec)
		runs = append(runs, res)
		printRun(os.Stdout, res)
		if o.Trace {
			if b, err := os.ReadFile(spansPath(o.Out, w.Name)); err == nil {
				spans[w.Name] = b
			}
		}
	}
	if err := appendResults(filepath.Join(o.Out, "results.json"), thisMachine(root), runs); err != nil {
		return err
	}
	if o.Trace {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.Out, "spans.json"), b, 0o644); err != nil {
			return err
		}
	}
	return printSummary(os.Stdout, runs, spec, o.Trace, o.Workload != "")
}

// buildMpcgsd builds the daemon from this checkout (untimed) into
// .bench_build/bin at the repository root.
func buildMpcgsd(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "bin", "mpcgsd")
	cmd := exec.Command("go", "build", "-o", out, "mpcgs/cmd/mpcgsd")
	cmd.Dir = filepath.Join(root, "bench")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building mpcgsd: %w", err)
	}
	return out, nil
}

// runWorkload makes the workload's inputs, times its set-up on probe
// processes (estimation workloads), and runs the measuring process.
// Set-up times are corrected for CPU time the hypervisor took away while
// the probes ran (see cpuShare).
func runWorkload(self string, o childOptions, w workload) (runResult, error) {
	o.Workload = w.Name
	o.Inputs = inputDir(o.Out, w, o.Seed, o.Scale)
	// A service run's arrival window is its whole time budget; draining
	// the backlog, the restart phase and the checks come after it.
	ins, err := w.inputs(o.Seed, float64(o.Seconds))
	if err != nil {
		return runResult{}, err
	}
	if err := writeInputs(o.Inputs, ins); err != nil {
		return runResult{}, err
	}
	var setup []float64
	share := 1.0
	if !w.Service {
		probe := o
		probe.Probe = true
		c0 := readCPUTimes()
		for k := 0; k < setupProbes; k++ {
			d, _, err := spawn(self, probe)
			if err != nil {
				return runResult{}, err
			}
			setup = append(setup, d.Seconds())
		}
		share = cpuShare(c0, readCPUTimes())
	}
	d, res, err := spawn(self, o)
	if err != nil {
		return runResult{}, err
	}
	if !w.Service {
		// The probes' CPU share stands for the measuring process's start
		// too: a start is too short to measure its own.
		setup = append(setup, d.Seconds())
		q1, q2, q3 := quartiles(scaled(setup, share))
		res.Metrics["setup_s"] = Metric{Value: q2, Unit: "s", N: len(setup), Q1: q1, Q3: q3}
	}
	return res, nil
}

// spawn runs one workload process and returns the time from exec to its
// "ready" line together with the run result it prints last.
func spawn(self string, o childOptions) (time.Duration, runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, o.args()...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.NProc))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, runResult{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, runResult{}, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var ready time.Duration
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == "ready" && ready == 0 {
			ready = time.Since(start)
			continue
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return 0, runResult{}, fmt.Errorf("workload process: %w", err)
	}
	if scanErr != nil {
		return 0, runResult{}, scanErr
	}
	if ready == 0 {
		return 0, runResult{}, errors.New("workload process never became ready")
	}
	if o.Probe {
		return ready, runResult{}, nil
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return 0, runResult{}, fmt.Errorf("workload process result: %w", err)
	}
	return ready, res, nil
}

// childMain is the workload process.
func childMain(o childOptions) error {
	ins, err := readInputs(o.Inputs)
	if err != nil {
		return err
	}
	all, err := workloads(o.Scale)
	if err != nil {
		return err
	}
	w, err := findWorkload(all, o.Workload)
	if err != nil {
		return err
	}
	r := &runCtx{opts: o, ms: newMetrics(), start: time.Now()}
	if o.Trace {
		r.tr = newTracer()
	}
	if w.Service {
		fmt.Println("ready")
		runService(r, w, ins)
	} else {
		ls := make([]*loaded, len(ins))
		for i, in := range ins {
			if ls[i], err = in.P.load(); err != nil {
				return err
			}
		}
		fmt.Println("ready")
		if o.Probe {
			return nil
		}
		runEstimation(r, ls)
	}
	if r.tr != nil {
		spans := r.tr.Spans()
		for name, self := range SelfTimes(spans) {
			r.ms.set("span."+name+".self_s", "s", self.Seconds())
		}
		if err := writeSpans(spansPath(o.Out, w.Name), spans); err != nil {
			return err
		}
	}
	res := runResult{
		Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Scale: o.Scale,
		Attempted: r.attempted, Failed: r.failed, Failures: append(r.failures, r.ms.errs...),
		Metrics: r.ms.m,
	}
	res.Failed += len(r.ms.errs)
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func spansPath(out, workload string) string {
	return filepath.Join(out, "spans-"+workload+".json")
}

// checkDeclared fails a run that lacks a metric BENCHMARK.json declares
// for its kind, or reports one in another unit.
func checkDeclared(res *runResult, spec *benchSpec) {
	for _, d := range spec.metricSpecs(res.Trace) {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			res.Failures = append(res.Failures, "missing metric "+d.Name)
		case m.Unit != d.Unit:
			res.Failures = append(res.Failures, fmt.Sprintf("metric %s in %s, declared %s", d.Name, m.Unit, d.Unit))
		default:
			continue
		}
		res.Failed++
		res.Correct = false
	}
}

func printRun(w io.Writer, res runResult) {
	kind := "end-to-end"
	if res.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %ds, %s): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, kind, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("  %-36s %14.6g %-6s n=%d", name, m.Value, m.Unit, m.N)
		if m.N > 1 && m.Pct == 0 {
			line += fmt.Sprintf("  q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.Pct != 0 {
			line += fmt.Sprintf("  (p%g)", m.Pct)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printSummary prints the one-line JSON result: for a single workload the
// metrics BENCHMARK.json declares for the run's kind, otherwise those of
// every workload prefixed with its name.
func printSummary(w io.Writer, runs []runResult, spec *benchSpec, trace, single bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, res := range runs {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, d := range spec.metricSpecs(trace) {
			m, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			name := d.Name
			if !single {
				name = res.Workload + "/" + d.Name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
