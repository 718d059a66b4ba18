package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/sched"
	"mpcgs/internal/seqgen"
)

// AutostopPoint is one row of the ESS-target experiment: the identical
// batch run fixed-length (every pass draws its full Samples quota) and
// target-driven (passes retire once the online ESS reaches the target,
// freeing their drivers for the remaining tenants). One "hard" job in
// each batch carries no target, standing in for the long tenant that
// inherits the freed capacity.
type AutostopPoint struct {
	Jobs        int
	FixedSec    float64 // fixed-length batch wall time
	TargetSec   float64 // target-driven batch wall time
	FixedSteps  int     // total sampler transitions driven, fixed
	TargetSteps int     // total sampler transitions driven, target-driven
	Converged   int     // jobs retired early by the stop rule
	// HardShareFixed/HardShareTarget is the no-target job's busy time as
	// a fraction of the batch wall time. The share rising in the
	// target-driven batch is the reallocation evidence: the drivers the
	// converged jobs released went to the tenant that still needed them.
	HardShareFixed  float64
	HardShareTarget float64
	Speedup         float64 // FixedSec / TargetSec
}

// AutostopThroughput runs the auto-stop experiment: for each job count,
// a batch of estimation jobs is run once without stop targets and once
// with an ESS target on every job but the last, over the same shared
// pool.
func AutostopThroughput(c Common) ([]AutostopPoint, error) {
	jobCounts := []int{4, 8}
	nSeq, seqLen, burnin, samples := 8, 120, 100, 4000
	essTarget := 25.0
	if c.Scale == ScalePaper {
		jobCounts = []int{4, 8, 16}
		burnin, samples = 200, 20000
		essTarget = 100.0
	}
	workers := c.workers()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	makeJobs := func(n int, target float64) ([]sched.Job, error) {
		jobs := make([]sched.Job, n)
		for i := range jobs {
			aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed()+uint64(100*i))
			if err != nil {
				return nil, err
			}
			jobs[i] = sched.Job{
				Name:         fmt.Sprintf("job%d", i),
				Alignment:    aln,
				InitialTheta: 1.0,
				Sampler:      "gmh",
				Proposals:    workers,
				Burnin:       burnin,
				Samples:      samples,
				EMIterations: 1,
				Seed:         c.seed() + uint64(1000*i),
				ESSTarget:    target,
			}
		}
		// The last job is the long tenant: no stop target, full quota.
		jobs[n-1].ESSTarget = 0
		return jobs, nil
	}

	runOnce := func(n int, target float64) (wall float64, steps int, converged int, hardShare float64, err error) {
		jobs, err := makeJobs(n, target)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		pool := device.NewPool(workers)
		defer pool.Close()
		start := time.Now()
		results, err := sched.RunBatch(context.Background(), pool, jobs, sched.Options{})
		wall = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("autostop experiment, %d jobs: %w", n, err)
		}
		var hardBusy time.Duration
		for _, r := range results {
			if r.Err != nil {
				return 0, 0, 0, 0, fmt.Errorf("autostop experiment, job %s: %w", r.Name, r.Err)
			}
			steps += r.Steps
			if r.Converged {
				converged++
			}
			if r.Name == jobs[n-1].Name {
				hardBusy = r.Busy
			}
		}
		return wall, steps, converged, hardBusy.Seconds() / wall, nil
	}

	var out []AutostopPoint
	for _, n := range jobCounts {
		fixedSec, fixedSteps, _, hardFixed, err := runOnce(n, 0)
		if err != nil {
			return nil, err
		}
		targetSec, targetSteps, converged, hardTarget, err := runOnce(n, essTarget)
		if err != nil {
			return nil, err
		}
		out = append(out, AutostopPoint{
			Jobs:            n,
			FixedSec:        fixedSec,
			TargetSec:       targetSec,
			FixedSteps:      fixedSteps,
			TargetSteps:     targetSteps,
			Converged:       converged,
			HardShareFixed:  hardFixed,
			HardShareTarget: hardTarget,
			Speedup:         fixedSec / targetSec,
		})
	}
	return out, nil
}

// CheckpointSizePoint is one row of the O(interval) table: the encoded
// snapshot size of a spilling run at the end of its last step, next to
// the size of the sidecar file its checkpoint points into.
type CheckpointSizePoint struct {
	Samples      int
	SidecarBytes int   // snapshot carrying only the sidecar reference
	TraceBytes   int64 // sidecar file size (where the draws actually live)
}

// CheckpointSizes measures snapshot size as a function of recorded draw
// count. The sidecar grows linearly; the snapshot must not grow at all.
func CheckpointSizes(c Common, dir string) ([]CheckpointSizePoint, error) {
	sampleCounts := []int{500, 2000, 8000}
	if c.Scale == ScalePaper {
		sampleCounts = []int{1000, 10000, 100000}
	}
	dev := device.Serial()
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	eval, err := buildEvaluator(aln, dev)
	if err != nil {
		return nil, err
	}
	init, err := core.InitialTree(aln, 1.0, c.seed()+1)
	if err != nil {
		return nil, err
	}
	s := core.NewGMH(eval, dev, 3)

	snapshotBytes := func(cfg core.ChainConfig) (int, int64, error) {
		run, err := s.Start(init, cfg)
		if err != nil {
			return 0, 0, err
		}
		for !run.Done() {
			if err := run.Step(); err != nil {
				return 0, 0, err
			}
		}
		snap, err := run.Snapshot()
		if err != nil {
			return 0, 0, err
		}
		wire, err := ckpt.EncodeStep(snap)
		if err != nil {
			return 0, 0, err
		}
		data, err := json.Marshal(wire)
		if err != nil {
			return 0, 0, err
		}
		if _, err := run.Finish(); err != nil {
			return 0, 0, err
		}
		return len(data), snap.TraceRef.Offset, nil
	}

	var out []CheckpointSizePoint
	for i, n := range sampleCounts {
		cfg := core.ChainConfig{Theta: 1.0, Burnin: 50, Samples: n, Seed: c.seed() + 7,
			Trace: &core.TraceSpec{Path: fmt.Sprintf("%s/ckptsize%d.trace", dir, i)}}
		sidecar, traceBytes, err := snapshotBytes(cfg)
		if err != nil {
			return nil, fmt.Errorf("checkpoint-size experiment, %d samples: %w", n, err)
		}
		out = append(out, CheckpointSizePoint{
			Samples:      n,
			SidecarBytes: sidecar,
			TraceBytes:   traceBytes,
		})
	}
	return out, nil
}
