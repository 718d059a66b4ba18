package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"mpcgs"
)

// runCtx accumulates one run's operations, checks and metrics inside the
// workload process. Operations may be counted from several goroutines.
type runCtx struct {
	opts      childOptions
	ms        *Metrics
	tr        *Tracer // nil on untraced runs
	start     time.Time
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// op counts one operation and records its failure, if any.
func (r *runCtx) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		return false
	}
	return true
}

// check counts one correctness check.
func (r *runCtx) check(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf(format, args...))
}

// checkTheta requires θ̂ to be finite and within [0.5, 2] times the θ
// the data's generating genealogy supports.
func (r *runCtx) checkTheta(p problem, theta float64) {
	ref := p.GenealogyTheta
	r.check(!math.IsNaN(theta) && !math.IsInf(theta, 0) && theta >= 0.5*ref && theta <= 2*ref,
		"%s: θ̂ = %v is outside [0.5, 2]×%v", p.Name, theta, ref)
}

// estimateReps is how many timed estimates a run makes at each worker
// count after the warm-up, and minCycles the fewest sampling cycles it
// times however short its time budget.
const (
	estimateReps = 3
	minCycles    = 3
)

// runEstimation is the workload process of an estimation workload. The
// warm-up estimates the first dataset with mpcgs.Run and checks θ̂; then
// the run either times estimates and sampling passes or, traced,
// measures the layers.
func runEstimation(r *runCtx, ls []*loaded) {
	res, err := mpcgs.Run(ls[0].publicConfig(r.opts.NProc))
	if !r.op(err) {
		return
	}
	r.checkTheta(ls[0].p, res.Theta)
	if r.tr != nil {
		ref := []float64{res.Theta}
		for _, l := range ls[1:] {
			res, err := mpcgs.Run(l.publicConfig(r.opts.NProc))
			if !r.op(err) {
				return
			}
			r.checkTheta(l.p, res.Theta)
			ref = append(ref, res.Theta)
		}
		r.measureLayers(ls, ref)
		return
	}
	start := time.Now()
	rss := sampleRSS(os.Getpid())
	timeEstimates(r, ls[0], res.Theta)
	samplingCycles(r, ls, time.Duration(r.opts.Seconds)*time.Second-time.Since(start))
	r.ms.at("rss_mb", "MB", rss.Stop(), rssPct)
	if hwm, err := procStatusMB(os.Getpid(), "VmHWM"); r.op(err) {
		r.ms.set("peak_rss_mb", "MB", hwm)
	}
}

// timeEstimates times estimateReps estimates of l with mpcgs.Run at nproc
// workers and at one, alternating which goes first so slow drift of the
// machine affects both alike, each corrected for CPU time the hypervisor
// took away (see cpuShare). Every θ̂ must equal the warm-up's bit for
// bit.
//
// The estimate's wall time can only be compared between runs of one
// seed: the M-step's gradient ascent takes from a few hundred to tens of
// thousands of objective evaluations depending on the data and the chain
// seed. The worker-count ratio cancels that.
func timeEstimates(r *runCtx, l *loaded, theta float64) {
	nproc := r.opts.NProc
	var estimate, essPerS, eff []float64
	for k := 0; k < estimateReps; k++ {
		order := []int{nproc, 1}
		if k%2 == 1 {
			order[0], order[1] = 1, nproc
		}
		var tN, t1 time.Duration
		for _, workers := range order {
			t0, c0 := time.Now(), readCPUTimes()
			res, err := mpcgs.Run(l.publicConfig(workers))
			dt := scaleDuration(time.Since(t0), cpuShare(c0, readCPUTimes()))
			if !r.op(err) {
				return
			}
			r.check(math.Float64bits(res.Theta) == math.Float64bits(theta),
				"%s: estimate at %d workers gave θ̂ %v, the warm-up %v", l.p.Name, workers, res.Theta, theta)
			if workers == nproc {
				tN = dt
				estimate = append(estimate, dt.Seconds())
				essPerS = append(essPerS, res.Diagnostics.ESS/dt.Seconds())
			} else {
				t1 = dt
			}
		}
		eff = append(eff, t1.Seconds()/(float64(nproc)*tN.Seconds()))
	}
	r.ms.summary("estimate_s", "s", estimate)
	r.ms.summary("ess_per_s", "1/s", essPerS)
	r.ms.summary("scaling_eff", "ratio", eff)
}

// samplingCycles times sampling passes at nproc workers for at least
// minCycles cycles and until budget has passed, and reports the sampling
// rate. Each cycle runs the first EM iteration's sampling pass of every
// problem — the pass mpcgs.Run starts with — and every pass of a problem
// must draw the same draws. Unlike the estimate's wall time, the rate
// does not depend on how the M-step converges, so it can be held to a
// bound across seeds. The rate is corrected for CPU time the hypervisor
// took away during the cycle (see cpuShare); the uncorrected rate is
// reported as throughput_wall_per_s.
func samplingCycles(r *runCtx, ls []*loaded, budget time.Duration) {
	start := time.Now()
	digests := make(map[int]uint64)
	var rate, wallRate, share []float64
	for c := 0; c < minCycles || time.Since(start) < budget; c++ {
		var draws int
		var dur time.Duration
		c0 := readCPUTimes()
		for i, l := range ls {
			po, err := l.samplePass(r.opts.NProc, nil, "")
			if !r.op(err) {
				return
			}
			if prev, seen := digests[i]; seen {
				r.check(prev == po.Digest, "%s: sampling pass drew different draws than an earlier pass", l.p.Name)
			} else {
				digests[i] = po.Digest
			}
			draws += po.Draws
			dur += po.Dur
		}
		f := cpuShare(c0, readCPUTimes())
		wallRate = append(wallRate, float64(draws)/dur.Seconds())
		rate = append(rate, float64(draws)/(dur.Seconds()*f))
		share = append(share, f)
	}
	r.ms.summary("throughput_per_s", "1/s", rate)
	r.ms.summary("throughput_wall_per_s", "1/s", wallRate)
	r.ms.summary("bench.cpu_share", "ratio", share)
}

// scaleDuration returns d times f.
func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// overheadPairs is the fewest traced/untraced pass pairs the tracing
// overhead is measured from.
const overheadPairs = 5

// measureLayers is the traced part of a run. For each problem, whose
// reference θ̂ is given, it runs the traced core-call estimator at nproc
// workers and at one, checking both θ̂ bit-identical to the reference;
// then it measures the tracing overhead on paired sampling passes, and
// finally replays kernels on genealogies of the first problem, through
// the path its sampler uses — as its own phase, so the replay's cost
// stays out of the overhead figure.
func (r *runCtx) measureLayers(ls []*loaded, ref []float64) {
	nproc := r.opts.NProc
	var oN, o1 []*emOutcome
	var runsN []string
	for i, l := range ls {
		for _, workers := range []int{nproc, 1} {
			run := fmt.Sprintf("%s/w%d", l.p.Name, workers)
			o, err := l.runEM(workers, r.tr, run)
			if !r.op(err) {
				return
			}
			r.check(math.Float64bits(o.Theta) == math.Float64bits(ref[i]),
				"%s: traced estimator at %d workers gave θ̂ %v, reference %v", l.p.Name, workers, o.Theta, ref[i])
			if workers == nproc {
				oN, runsN = append(oN, o), append(runsN, run)
			} else {
				o1 = append(o1, o)
			}
		}
	}

	// Overhead: paired sampling passes with and without a tracer,
	// alternating which goes first, until the run's time budget is spent;
	// the median of the pairs' ratios.
	var ratios []float64
	budget := time.Duration(r.opts.Seconds) * time.Second
	for k := 0; k < overheadPairs || time.Since(r.start) < budget; k++ {
		var dur [2]float64
		for _, on := range []bool{k%2 == 0, k%2 != 0} {
			var tr *Tracer
			if on {
				tr = newTracer()
			}
			po, err := ls[0].samplePass(nproc, tr, "overhead")
			if !r.op(err) {
				return
			}
			if on {
				dur[1] = po.Dur.Seconds()
			} else {
				dur[0] = po.Dur.Seconds()
			}
		}
		ratios = append(ratios, dur[1]/dur[0]-1)
	}

	rp, err := ls[0].replay(nproc)
	if !r.op(err) {
		return
	}
	for _, m := range rp.Mismatches {
		r.check(false, "%s", m)
	}
	r.check(rp.Checked > 0, "%s: kernel replay checked nothing", ls[0].p.Name)

	r.layerMetrics(ls[0].p.Sampler, oN, o1, runsN, rp, median(ratios))
}

// layerMetrics derives the per-layer metrics from the traced estimator's
// outcomes at nproc (oN) and one worker (o1), the spans of the nproc
// runs, and the kernel replay of a problem sampled with replaySampler.
func (r *runCtx) layerMetrics(replaySampler string, oN, o1 []*emOutcome, runsN []string, rp *replayOutcome, overhead float64) {
	nproc := float64(r.opts.NProc)
	var tot, samp, mle, diag, samp1, mle1 time.Duration
	var steps, draws, acc, props, fails, iters int
	var sl, st, ml, mt int64
	var estimate, essPerS, ess []float64
	for i, o := range oN {
		tot += o.Total
		samp += o.Sample
		mle += o.MLE
		diag += o.Diagnose
		samp1 += o1[i].Sample
		mle1 += o1[i].MLE
		steps += o.Steps
		draws += o.Draws
		acc += o.Accepted
		props += o.Proposals
		fails += o.Failed
		iters += o.Iterations
		sl += o.SampleLaunches
		st += o.SampleThreads
		ml += o.MLELaunches
		mt += o.MLEThreads
		estimate = append(estimate, o.Total.Seconds())
		ess = append(ess, o.ESS)
		essPerS = append(essPerS, o.ESS/o.Total.Seconds())
	}
	n := float64(len(oN))
	ms := r.ms
	ms.summary("core.estimate_s", "s", estimate)
	ms.set("core.sample_s", "s", samp.Seconds()/n)
	ms.set("core.draws_per_s", "1/s", float64(draws)/samp.Seconds())
	ms.set("core.mle_s", "s", mle.Seconds()/n)
	ms.set("core.mle_share", "ratio", mle.Seconds()/tot.Seconds())
	ms.set("core.diagnose_s", "s", diag.Seconds()/n)
	ms.set("core.accept_ratio", "ratio", float64(acc)/float64(draws))
	ms.set("core.failed_proposal_frac", "ratio", float64(fails)/float64(props))
	ms.summary("core.ess", "count", ess)
	ms.summary("core.ess_per_s", "1/s", essPerS)
	ms.set("core.em_iterations", "count", float64(iters)/n)
	ms.set("core.sample_scaling_eff", "ratio", samp1.Seconds()/(nproc*samp.Seconds()))
	ms.set("core.mle_scaling_eff", "ratio", mle1.Seconds()/(nproc*mle.Seconds()))

	var stepUS []float64
	for _, run := range runsN {
		stepUS = append(stepUS, scaled(seconds(r.tr.Durations("core.step", run)), 1e6)...)
	}
	ms.summary("core.step_us.p50", "us", stepUS)
	ms.tail("core.step_us.tail", "us", stepUS)
	ms.set("core.step_count", "count", float64(len(stepUS)))

	ms.set("device.launches_per_step", "count", float64(sl)/float64(steps))
	ms.set("device.threads_per_step", "count", float64(st)/float64(steps))
	ms.set("device.launches_per_mle", "count", float64(ml)/float64(iters))
	ms.set("device.threads_per_mle", "count", float64(mt)/float64(iters))

	ms.set("felsen.patterns", "count", float64(rp.Patterns))
	ms.summary("felsen.root_path_depth", "count", rp.Depth)
	ms.summary("felsen.computed_bytes_per_candidate", "B", rp.Bytes)
	// The kernel's share of a step, from the replayed per-call costs and
	// the replayed problem's median step: a GMH round binds once and
	// evaluates every candidate; an MC³ sweep stages a proposal on every
	// rung, the rungs spread over the workers. (Rebasing onto an accepted
	// state and committing are left out: they happen only on acceptance.)
	// It bounds what a kernel change can save from a step.
	stepP50 := median(scaled(seconds(r.tr.Durations("core.step", runsN[0])), 1e6))
	var kernel float64
	if replaySampler == "heated" {
		ms.summary("felsen.stage_delta_us", "us", rp.Stage)
		ms.summary("felsen.commit_us", "us", rp.Commit)
		chains := float64(oN[0].Proposals) / float64(oN[0].Steps)
		kernel = chains * median(rp.Stage) / math.Min(chains, nproc)
	} else {
		ms.summary("felsen.bind_round_us", "us", rp.Bind)
		ms.summary("felsen.wave_eval_us", "us", rp.WaveEval)
		ms.summary("felsen.rebase_to_us", "us", rp.RebaseTo)
		kernel = median(rp.Bind) + float64(rp.Candidates)*median(rp.WaveEval)
	}
	ms.set("felsen.round_share", "ratio", kernel/stepP50)

	ms.summary("resim.resimulate_us", "us", rp.Resim)
	ms.set("resim.fail_frac", "ratio", float64(rp.ResimFails)/float64(rp.Resims))
	ms.set("bench.trace_overhead_frac", "ratio", overhead)
}
