package sched

import (
	"fmt"
	"math"
	"strings"
)

// minTheta is the smallest driving θ a job may start from. The
// resimulation's interval probabilities multiply two coalescent rates of
// order 1/θ, which overflow float64 below about 2.6e-154; from there on
// its draws are numerically infeasible and every proposal fails. A θ
// this small is in any case no per-site mutation rate.
const minTheta = 1e-150

// Caps on the knobs a job's set-up allocates by, so that one spec (one
// POST to the daemon) cannot exhaust the process. Each cap applies to
// the samplers that allocate by its knob; a pool-size default larger
// than a cap is refused like an explicit value, so jobs on a pool that
// large must set the knob.
//   - maxProposals bounds GMH's proposal-set size N: each proposal has
//     its own tree, resimulation scratch, age row and wave-grid
//     partials. It admits the proposal-count sweep's largest N, 128,
//     eight times over.
//   - maxChains bounds the heated and multichain chain counts: each
//     chain holds its own delta cache, one conditional row per interior
//     node over every site pattern.
//   - maxSwapWindow bounds the heated ladder's per-pair swap window, a
//     byte per entry for each adjacent pair, carried in every snapshot.
//     The default window is 64.
const (
	maxProposals  = 1024
	maxChains     = 128
	maxSwapWindow = 4096
)

// Validate checks a job for spec errors a run could only surface later
// with a less useful failure. It is the one spec gate: admission runs it
// for every entry point, and JobFromSpec runs it for every JSON surface,
// so a bad manifest entry fails at load and a bad submission is a 400,
// not a failed job. Errors name fields by their spec (JSON) names.
func (j Job) Validate() error {
	if j.Alignment == nil {
		return fmt.Errorf("alignment is required")
	}
	if err := j.Alignment.Validate(); err != nil {
		return err
	}
	if j.Alignment.NSeq() < 3 {
		return fmt.Errorf("need at least 3 sequences, have %d", j.Alignment.NSeq())
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"theta", j.InitialTheta}, {"max_temp", j.MaxTemp}, {"ess_target", j.ESSTarget}, {"rhat_target", j.RHatTarget}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v must be finite", f.name, f.v)
		}
	}
	if j.InitialTheta <= 0 {
		return fmt.Errorf("theta %v must be positive", j.InitialTheta)
	}
	if j.InitialTheta < minTheta {
		return fmt.Errorf("theta %v is below the smallest supported value %v", j.InitialTheta, minTheta)
	}
	switch j.Sampler {
	case "", "gmh", "mh", "heated", "multichain":
	default:
		return fmt.Errorf("unknown sampler %q", j.Sampler)
	}
	switch j.Model {
	case "", "f81", "jc69", "f84":
	default:
		return fmt.Errorf("unknown model %q", j.Model)
	}
	if j.Proposals < 0 {
		return fmt.Errorf("proposal count %d must not be negative", j.Proposals)
	}
	if j.Chains < 0 {
		return fmt.Errorf("chain count %d must not be negative", j.Chains)
	}
	switch j.Sampler {
	case "", "gmh":
		if j.Proposals > maxProposals {
			return fmt.Errorf("proposal count %d exceeds the cap of %d", j.Proposals, maxProposals)
		}
	case "heated", "multichain":
		if j.Chains > maxChains {
			return fmt.Errorf("chain count %d exceeds the cap of %d", j.Chains, maxChains)
		}
	}
	if j.Burnin < 0 {
		return fmt.Errorf("burn-in %d must not be negative", j.Burnin)
	}
	if j.Samples < 0 {
		return fmt.Errorf("sample count %d must not be negative", j.Samples)
	}
	if j.EMIterations < 0 {
		return fmt.Errorf("EM iteration count %d must not be negative", j.EMIterations)
	}
	if j.MaxTemp != 0 && j.MaxTemp < 1 {
		return fmt.Errorf("max_temp %v must be at least 1 (0 for the default)", j.MaxTemp)
	}
	if j.SwapEvery < 0 {
		return fmt.Errorf("swap_every %d must not be negative", j.SwapEvery)
	}
	if j.SwapWindow < 0 {
		return fmt.Errorf("swap_window %d must not be negative", j.SwapWindow)
	}
	if j.SwapWindow > maxSwapWindow {
		return fmt.Errorf("swap_window %d exceeds the cap of %d", j.SwapWindow, maxSwapWindow)
	}
	if j.Sampler != "heated" {
		if j.MaxTemp != 0 || j.SwapEvery != 0 || j.AdaptLadder || j.SwapWindow != 0 {
			return fmt.Errorf("tempering knobs (max_temp/swap_every/adapt_ladder/swap_window) are only meaningful for the heated sampler (job uses %q)", samplerOrDefault(j.Sampler))
		}
	}
	if j.ESSTarget < 0 {
		return fmt.Errorf("ess_target %v must not be negative", j.ESSTarget)
	}
	if j.RHatTarget != 0 && j.RHatTarget <= 1 {
		return fmt.Errorf("rhat_target %v must exceed 1 (0 to disable)", j.RHatTarget)
	}
	if j.Sampler == "multichain" && (j.ESSTarget > 0 || j.RHatTarget > 0) {
		// Each multichain chain owns an even share of the pooled
		// quota; a per-chain stop rule against a pooled target is
		// ill-defined, so the ensemble rejects targets (core would too,
		// but here the refusal is synchronous).
		return fmt.Errorf("convergence stop targets (ess_target/rhat_target) are not supported by the multichain sampler")
	}
	return nil
}

func samplerOrDefault(s string) string {
	if s == "" {
		return "gmh"
	}
	return s
}

// CheckpointKey maps a job name to the filesystem key that names its
// durable per-job state: a batch job's checkpoint subdirectory, its
// trace sidecar, and the state-directory entry of the estimation
// daemon, where the job's spec record and checkpoint live. The mapping
// folds case (checkpoint directories must not collide on
// case-insensitive filesystems) and replaces every byte outside
// [a-z0-9._-] with '_', so distinct names can resolve to the same key.
// Admission must therefore reject key collisions, not just duplicate
// names (checkKeys) — two jobs sharing a checkpoint directory silently
// corrupt each other's resume state.
func CheckpointKey(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	key := sb.String()
	// "." and ".." are path navigation, not directory names; an
	// all-dots name would escape or alias the state directory.
	if strings.Trim(key, ".") == "" {
		return "job"
	}
	return key
}

// checkKeys refuses a set of jobs two of whose names resolve to the
// same checkpoint key ("pop A" and "pop/a" both become "pop_a"): those
// jobs would share a checkpoint directory and overwrite each other's
// state. A duplicated name is the plainest such collision.
func checkKeys(jobs []Job) error {
	seen := make(map[string]int, len(jobs))
	for i, job := range jobs {
		key := CheckpointKey(job.Name)
		prev, dup := seen[key]
		switch {
		case !dup:
			seen[key] = i
		case jobs[prev].Name == job.Name:
			return fmt.Errorf("jobs %d and %d share the name %q; job names must be unique (they key results and checkpoint state)",
				prev, i, job.Name)
		default:
			return fmt.Errorf("jobs %d (%q) and %d (%q) resolve to the same checkpoint key %q; rename one so their durable state cannot share a directory",
				prev, jobs[prev].Name, i, job.Name, key)
		}
	}
	return nil
}
