package sched

import (
	"fmt"
	"strings"
)

// Validate checks a fully-specified job for spec errors a run could only
// surface later with a less useful failure. It mirrors the manifest
// loader's admission checks for callers that build jobs directly — the
// job queue and the HTTP service validate submissions here so a bad spec
// is rejected synchronously (a 400, not a failed job).
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
	if j.InitialTheta <= 0 {
		return fmt.Errorf("initial theta %v must be positive", j.InitialTheta)
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
		return fmt.Errorf("MaxTemp %v must be at least 1 (0 for the default)", j.MaxTemp)
	}
	if j.SwapEvery < 0 {
		return fmt.Errorf("swap interval %d must not be negative", j.SwapEvery)
	}
	if j.SwapWindow < 0 {
		return fmt.Errorf("swap window %d must not be negative", j.SwapWindow)
	}
	if j.Sampler != "heated" {
		if j.MaxTemp != 0 || j.SwapEvery != 0 || j.AdaptLadder || j.SwapWindow != 0 {
			return fmt.Errorf("tempering knobs (max_temp/swap_every/adapt_ladder/swap_window) are only meaningful for the heated sampler (job uses %q)", samplerOrDefault(j.Sampler))
		}
	}
	if j.ESSTarget < 0 {
		return fmt.Errorf("ess target %v must not be negative", j.ESSTarget)
	}
	if j.RHatTarget != 0 && j.RHatTarget <= 1 {
		return fmt.Errorf("rhat target %v must exceed 1 (0 to disable)", j.RHatTarget)
	}
	if j.Sampler == "multichain" && (j.ESSTarget > 0 || j.RHatTarget > 0) {
		// Each multichain sub-chain owns an even share of the pooled
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
// durable per-job state: the state-directory entry of the estimation
// daemon, where the job's spec record and checkpoint live. The mapping
// folds case (checkpoint directories must not collide on
// case-insensitive filesystems) and replaces every byte outside
// [a-z0-9._-] with '_', so distinct names can resolve to the same key.
// Admission must therefore reject key collisions, not just duplicate
// names — two jobs sharing a checkpoint directory silently corrupt each
// other's resume state.
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
