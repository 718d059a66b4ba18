// Package sched is the multi-tenant job scheduler: it accepts many
// independent estimation jobs — each with its own alignment, likelihood
// model, sampler configuration and seed — and multiplexes their chains
// over one shared device pool, instead of the one-pool-per-run model of a
// standalone estimation ("many alignments, one process").
//
// # Scheduling model
//
// Every job is a step-driven EM estimation (core.EMRun): all of its
// mutable state — chain engine, PRNG streams, recorder — is owned by the
// run, and the scheduler advances it one sampler transition at a time.
// There is one driver loop, Queue's: a fixed set of driver goroutines
// pops the most urgent job, steps it for a bounded quantum of
// transitions, and requeues it, so jobs time-slice fairly even when there
// are far more jobs than drivers. RunBatch is a client of it — submit
// every job, wait on the tickets — and every entry point (RunBatch,
// Queue.Submit, RunStandalone) admits a job through the same defaults,
// the same Validate and the same startJob. Prepare passes a job through
// the same gate for chain drivers the scheduler does not step (the
// Bayesian joint-posterior chain). Kernel launches from all jobs
// land on the one shared device.Pool, whose round-robin chunk claiming
// keeps the workers fair across tenants.
//
// # Determinism
//
// A job's trajectory is bit-identical to running it alone with the same
// seed: per-job PRNG streams are isolated inside the job's EMRun, the
// scheduler only decides *when* a job steps, never *what* it computes,
// and the device's reductions are scheduling-independent. The
// fixed-seed equivalence tests pin this contract.
//
// # Failure isolation
//
// One job failing (a pathological driving θ whose proposals cannot be
// resimulated, a bad alignment) records the error in its own Result and
// does not disturb the rest of the batch. Batch-level failures —
// cancellation of the context, the shared pool being closed — end the
// whole run and are returned by RunBatch itself.
package sched

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/subst"
)

// Job describes one estimation run: the unit of batch admission. Zero
// values select the same defaults a standalone estimation uses, so a job
// spec pins only what it cares about.
type Job struct {
	// Name labels the job in results and device accounting. Empty selects
	// "job<index>".
	Name string
	// Alignment is the job's sequence data (required, ≥ 3 sequences).
	Alignment *phylip.Alignment
	// InitialTheta is the starting driving value θ0 (required, positive).
	InitialTheta float64
	// Sampler is one of "gmh" (default), "mh", "heated", "multichain".
	Sampler string
	// Model is one of "f81" (default), "jc69", "f84".
	Model string
	// Proposals is the GMH proposal-set size N; 0 selects the pool's
	// worker count.
	Proposals int
	// Chains is the heated/multichain chain count; 0 selects the pool's
	// worker count.
	Chains int
	// MaxTemp is the heated ladder's hottest temperature; 0 selects the
	// sampler default (8). Values below 1 are rejected.
	MaxTemp float64
	// SwapEvery is the number of within-chain steps between heated swap
	// attempts; 0 selects 1. Negative values are rejected.
	SwapEvery int
	// AdaptLadder turns on swap-rate-driven temperature-ladder
	// adaptation for the heated sampler (adapted during burn-in, frozen
	// after).
	AdaptLadder bool
	// SwapWindow is the sliding-window size for per-pair swap-rate
	// tracking; 0 selects the controller default. Negative values are
	// rejected.
	SwapWindow int
	// Burnin (default 1000) and Samples (default 10000) size each EM
	// iteration's sampling pass.
	Burnin  int
	Samples int
	// EMIterations bounds the outer loop; default 10.
	EMIterations int
	// Seed drives all of the job's pseudo-randomness; default 1. Jobs
	// never share generator state, so equal seeds on different jobs are
	// legal (they decorrelate through the data unless the data is equal
	// too).
	Seed uint64
	// ESSTarget ends each EM iteration's sampling pass early once the
	// recorder's online effective sample size reaches it; 0 disables the
	// rule and the pass always draws its full Samples quota. A converged
	// job retires at its next quantum boundary, freeing its drivers for
	// the rest of the batch.
	ESSTarget float64
	// RHatTarget additionally requires the online split R-hat to fall to
	// the target (must exceed 1 when set); 0 disables the check.
	RHatTarget float64
}

func (j Job) withDefaults(index, poolWorkers int) Job {
	if j.Name == "" {
		j.Name = fmt.Sprintf("job%d", index)
	}
	if j.Sampler == "" {
		j.Sampler = "gmh"
	}
	if j.Model == "" {
		j.Model = "f81"
	}
	if j.Proposals <= 0 {
		j.Proposals = poolWorkers
	}
	if j.Chains <= 0 {
		j.Chains = poolWorkers
	}
	if j.Burnin <= 0 {
		j.Burnin = 1000
	}
	if j.Samples <= 0 {
		j.Samples = 10000
	}
	if j.EMIterations <= 0 {
		j.EMIterations = 10
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	return j
}

// Result is the outcome of one job.
type Result struct {
	Name string
	// Theta is the job's maximum-likelihood estimate.
	Theta float64
	// History records the job's EM trajectory.
	History []core.EMIteration
	// LastSet is the sample set of the final EM iteration (the posterior
	// trace the equivalence tests compare). It is nil for jobs restored
	// from a checkpoint without being re-run.
	LastSet *core.SampleSet
	// LastRun is the full sampler result of the final EM iteration — the
	// source of the heated per-pair swap-rate report. Nil for jobs
	// restored from a checkpoint without being re-run.
	LastRun *core.Result
	// Steps counts the sampler transitions the scheduler drove (including
	// transitions driven before a resume).
	Steps int
	// Busy is the cumulative time drivers spent stepping this job (its
	// share of the process, not wall-clock makespan: quanta of different
	// jobs overlap).
	Busy time.Duration
	// Resumed marks a job whose outcome was restored from a checkpoint
	// instead of being computed in this batch.
	Resumed bool
	// Converged marks a job whose final sampling pass ended early because
	// its online diagnostics reached the declared ESS/R-hat targets.
	Converged bool
	// Err is the job's failure, if any: an invalid spec, a sampling
	// error, or the batch-level cancellation that interrupted it.
	Err error
}

// Options tunes the scheduler.
type Options struct {
	// Drivers is the number of goroutines stepping jobs concurrently.
	// Non-positive selects the pool's worker count — enough concurrent
	// tenants to saturate the shared workers, few enough that per-job
	// working sets stay warm.
	Drivers int
	// Quantum is how many sampler transitions a driver performs on one
	// job before requeuing it (fair time-slicing granularity).
	// Non-positive selects 64.
	Quantum int
	// Checkpoint enables periodic and on-cancellation checkpointing of
	// every job, each into its own subdirectory of Checkpoint.Dir.
	Checkpoint CheckpointOptions
	// Resume restarts the batch from Checkpoint.Dir: finished and failed
	// jobs are skipped (their recorded outcome is returned), paused jobs
	// restore their chain state and continue, jobs with no state file
	// start fresh, and jobs whose fingerprint no longer matches their
	// checkpoint are rejected.
	Resume bool
}

// RunBatch drives every job to completion over the shared pool and
// returns one Result per job, in job order. Per-job failures are
// recorded in the results; RunBatch itself returns an error only for
// batch-level failures: a cancelled context (jobs not yet finished
// record ctx's error too), a closed pool, or a checkpoint that cannot be
// read or written (every job it stopped records it too).
//
// The jobs run on a Queue of their own: each is submitted in order, as
// its own tenant, and RunBatch waits on the tickets. With
// Options.Checkpoint set, job i is checkpointed into
// <Checkpoint.Dir>/<CheckpointKey(name_i)>/ exactly as a Queue
// submission is: its snapshot is refreshed each CheckpointOptions.Every
// transitions, a finished job records its result, and a cancellation
// drains the queue, which snapshots every still-running job at a step
// boundary before RunBatch returns. With Options.Resume set, each job
// resumes from its own directory: jobs recorded as finished or failed
// are skipped and paused jobs continue from their snapshot,
// bit-identical to never having stopped.
func RunBatch(ctx context.Context, pool *device.Pool, jobs []Job, opts Options) ([]Result, error) {
	if pool == nil {
		pool = device.NewPool(0)
		defer pool.Close()
	}
	if pool.Closed() {
		return nil, device.ErrClosed
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	// Admitting here names every job as its submission will (a job the
	// gate refuses is reported and never submitted), so a submission
	// error below can only be the job's checkpoint.
	admitted := make([]Job, len(jobs))
	for i, job := range jobs {
		admitted[i], results[i].Err = admit(job, i, pool.Workers())
		results[i].Name = admitted[i].Name
	}
	if opts.Checkpoint.enabled() {
		err := checkKeys(admitted)
		if err == nil && opts.Resume {
			err = checkBatchRoot(opts.Checkpoint.Dir)
		}
		if err != nil {
			for i := range results {
				results[i].Err = err
			}
			return results, err
		}
	}
	drivers := opts.Drivers
	if drivers <= 0 {
		drivers = pool.Workers()
	}
	q := NewQueue(pool, QueueOptions{Drivers: min(drivers, len(jobs)), Quantum: opts.Quantum})

	tickets := make([]*Ticket, len(jobs))
	var ckptErr error
	for i, job := range admitted {
		if results[i].Err != nil {
			continue
		}
		sub := SubmitOptions{Resume: opts.Resume}
		if opts.Checkpoint.enabled() {
			sub.Checkpoint = CheckpointOptions{Dir: filepath.Join(opts.Checkpoint.Dir, CheckpointKey(job.Name)), Every: opts.Checkpoint.Every}
		}
		tickets[i], results[i].Err = q.Submit(job, sub)
		if ckptErr == nil {
			ckptErr = results[i].Err
		}
	}

	for _, t := range tickets {
		if t != nil {
			select {
			case <-t.Done():
			case <-ctx.Done():
			}
		}
	}
	// Drain stops the drivers; after a cancellation it also snapshots
	// every job still running, at a step boundary.
	stopErr := q.Drain()
	for i, t := range tickets {
		if t == nil {
			continue
		}
		st, _ := t.State()
		if st.Result != nil {
			results[i] = *st.Result
		} else {
			results[i].Steps = st.Steps
			results[i].Err = fmt.Errorf("sched: job %q interrupted: %w", t.Name(), ctx.Err())
		}
	}
	return results, firstError(batchErr(ctx, pool), stopErr, ckptErr)
}

// checkBatchRoot refuses to resume a batch from a directory with a state
// file of its own. A batch directory holds only job subdirectories, so
// such a file is either a whole-batch checkpoint of an older format —
// Load names it and both versions — or one job's directory given in
// place of its batch's. Resuming past either would silently start every
// job afresh.
func checkBatchRoot(dir string) error {
	if _, err := os.Stat(ckpt.Path(dir)); err != nil {
		return nil
	}
	if _, err := ckpt.Load(dir); err != nil {
		return err
	}
	return fmt.Errorf("sched: %s is one job's checkpoint; resume a batch from the directory holding its job subdirectories", ckpt.Path(dir))
}

// firstError returns the first non-nil error.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunStandalone estimates one job alone in the one-pool-per-run model:
// its own device, spawned for the job and torn down after. It admits the
// job exactly as the queue does (same defaults, same Validate, same
// startJob), so it is both the batch mode's back-to-back baseline —
// comparable compute-for-compute — and the reference the equivalence
// tests pin scheduled traces against. mpcgs.Run runs through it.
func RunStandalone(job Job, workers int) (Result, error) {
	dev := device.New(workers)
	defer dev.Close()
	job, err := admit(job, 0, dev.Workers())
	res := Result{Name: job.Name}
	if err != nil {
		return res, err
	}
	em, err := startJob(job, dev, "")
	if err != nil {
		return res, fmt.Errorf("sched: job %q: %w", job.Name, err)
	}
	start := time.Now()
	for !em.Done() && em.Step() == nil {
		res.Steps++
	}
	res.Busy = time.Since(start)
	res.adopt(em)
	return res, res.Err
}

// admit applies a job's defaults and validates the result: the one spec
// gate every entry point passes, so batch, queue and standalone runs
// reject exactly the same jobs.
func admit(j Job, index, poolWorkers int) (Job, error) {
	j = j.withDefaults(index, poolWorkers)
	if err := j.Validate(); err != nil {
		return j, fmt.Errorf("sched: job %q: %w", j.Name, err)
	}
	return j, nil
}

// adopt copies a finished estimation's outcome (or its error) into res.
func (res *Result) adopt(em *core.EMRun) {
	out, err := em.Result()
	if err != nil {
		res.Err = err
		return
	}
	res.Theta = out.Theta
	res.History = out.History
	res.LastSet = out.LastSet
	res.LastRun = out.LastRun
	res.Converged = out.LastRun != nil && out.LastRun.StoppedEarly
}

// batchErr reports the batch-level stop condition, if any.
func batchErr(ctx context.Context, pool *device.Pool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if pool.Closed() {
		return device.ErrClosed
	}
	return nil
}

// Prepare admits a job through the gate every scheduled run passes —
// the same defaults, the same Validate — and builds its likelihood
// evaluator and starting genealogy on dev, exactly as startJob does
// before it adds a sampler. It serves chain drivers the scheduler does
// not step, such as the joint-posterior chain of mpcgs.RunBayesian; the
// returned job carries the defaults that were applied.
func Prepare(j Job, dev *device.Device) (Job, *felsen.Evaluator, *gtree.Tree, error) {
	j, err := admit(j, 0, dev.Workers())
	if err != nil {
		return j, nil, nil, err
	}
	eval, init, err := buildChain(j, dev)
	return j, eval, init, err
}

// buildChain builds an admitted job's model, evaluator and starting
// genealogy on dev: the part of an estimation every chain driver shares.
func buildChain(j Job, dev *device.Device) (*felsen.Evaluator, *gtree.Tree, error) {
	model, err := subst.ByName(j.Model, j.Alignment.BaseFreqs())
	if err != nil {
		return nil, nil, err
	}
	eval, err := felsen.New(model, j.Alignment, dev)
	if err != nil {
		return nil, nil, err
	}
	init, err := core.InitialTree(j.Alignment, j.InitialTheta, j.Seed)
	if err != nil {
		return nil, nil, err
	}
	return eval, init, nil
}

// startJob assembles an admitted job's estimation pipeline — model,
// evaluator, starting genealogy, sampler — on the job's device and
// returns it positioned before its first transition. It is the only
// place an estimation is built, whatever runs it. A non-empty trace path
// puts the recorder in bounded-memory spill mode with draws streamed to
// that sidecar file.
func startJob(j Job, dev *device.Device, trace string) (*core.EMRun, error) {
	eval, init, err := buildChain(j, dev)
	if err != nil {
		return nil, err
	}
	sampler, err := buildSampler(j, eval, dev)
	if err != nil {
		return nil, err
	}
	cfg := core.EMConfig{
		InitialTheta: j.InitialTheta,
		Iterations:   j.EMIterations,
		Burnin:       j.Burnin,
		Samples:      j.Samples,
		Seed:         j.Seed,
		ESSTarget:    j.ESSTarget,
		RHatTarget:   j.RHatTarget,
	}
	if trace != "" {
		cfg.Trace = &core.TraceSpec{Path: trace}
	}
	return core.StartEM(sampler, init, cfg, dev)
}

func buildSampler(j Job, eval *felsen.Evaluator, dev *device.Device) (core.StepSampler, error) {
	switch j.Sampler {
	case "gmh":
		return core.NewGMH(eval, dev, j.Proposals), nil
	case "mh":
		return core.NewMH(eval), nil
	case "heated":
		h := core.NewHeated(eval, dev, j.Chains)
		h.MaxTemp = j.MaxTemp
		h.SwapEvery = j.SwapEvery
		h.Adapt = j.AdaptLadder
		h.SwapWindow = j.SwapWindow
		return h, nil
	case "multichain":
		return core.NewMultiChain(eval, dev, j.Chains), nil
	default:
		return nil, fmt.Errorf("unknown sampler %q", j.Sampler)
	}
}
