package sched

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/phylip"
)

// Manifest is the on-disk description of a batch: optional defaults plus
// one entry per job. It is the input of `mpcgs -batch`.
//
//	{
//	  "defaults": {"sampler": "gmh", "burnin": 500, "samples": 5000, "theta": 1.0},
//	  "jobs": [
//	    {"name": "popA", "phylip": "popA.phy", "seed": 11},
//	    {"name": "popB", "phylip": "popB.phy", "theta": 0.5, "sampler": "heated", "seed": 12}
//	  ]
//	}
//
// Entries are job specs (ckpt.JobSpec) whose phylip field is a file
// path, resolved against the manifest's own directory when relative.
// Job fields left out inherit first from defaults, then from the
// standalone-run defaults (sampler gmh, model f81, burnin 1000,
// samples 10000, 10 EM iterations, seed 1).
type Manifest struct {
	Defaults ckpt.JobSpec   `json:"defaults"`
	Jobs     []ckpt.JobSpec `json:"jobs"`
}

// inherit returns the entry with unset fields filled from defaults.
func inherit(j, d ckpt.JobSpec) ckpt.JobSpec {
	if j.Theta == "" {
		j.Theta = d.Theta
	}
	if j.Sampler == "" {
		j.Sampler = d.Sampler
	}
	if j.Model == "" {
		j.Model = d.Model
	}
	if j.Proposals == nil {
		j.Proposals = d.Proposals
	}
	if j.Chains == nil {
		j.Chains = d.Chains
	}
	if j.Burnin == 0 {
		j.Burnin = d.Burnin
	}
	if j.Samples == 0 {
		j.Samples = d.Samples
	}
	if j.EMIterations == 0 {
		j.EMIterations = d.EMIterations
	}
	if j.Seed == 0 {
		j.Seed = d.Seed
	}
	// Tempering defaults are inherited only by jobs that resolve to the
	// heated sampler: a defaults-level ladder configuration must not
	// poison the non-heated jobs of a mixed manifest (Validate rejects
	// these knobs only when a job sets them directly).
	if j.Sampler == "heated" {
		if j.MaxTemp == "" {
			j.MaxTemp = d.MaxTemp
		}
		if j.SwapEvery == 0 {
			j.SwapEvery = d.SwapEvery
		}
		if j.AdaptLadder == nil {
			j.AdaptLadder = d.AdaptLadder
		}
		if j.SwapWindow == 0 {
			j.SwapWindow = d.SwapWindow
		}
	}
	// Stop targets are meaningful for every sampler except multichain, so
	// defaults-level targets must not poison a multichain job in a mixed
	// manifest.
	if j.Sampler != "multichain" {
		if j.ESSTarget == "" {
			j.ESSTarget = d.ESSTarget
		}
		if j.RHatTarget == "" {
			j.RHatTarget = d.RHatTarget
		}
	}
	return j
}

// checkEntry enforces the rules that exist only because of the defaults
// layer; every other check is Job.Validate's. An explicit zero count
// would be read as "the pool default", which a manifest says by
// omitting the field, and an explicit adapt_ladder — even false — on a
// non-heated job is a knob that would be silently ignored.
func checkEntry(j ckpt.JobSpec) error {
	if j.Proposals != nil && *j.Proposals == 0 {
		return errors.New("proposal count 0 must be positive (omit the field for the pool default)")
	}
	if j.Chains != nil && *j.Chains == 0 {
		return errors.New("chain count 0 must be positive (omit the field for the pool default)")
	}
	if j.AdaptLadder != nil && j.Sampler != "heated" {
		return fmt.Errorf("adapt_ladder is only meaningful for the heated sampler (job uses %q)", samplerOrDefault(j.Sampler))
	}
	return nil
}

// JobFromSpec maps a job spec onto a Job over the given alignment and
// validates it. It is the only place a spec's fields reach a Job: batch
// manifests, daemon submissions and journal replay all come through
// here, so every JSON surface accepts exactly the same jobs. Omitted
// fields stay zero, for admission to default.
func JobFromSpec(spec ckpt.JobSpec, aln *phylip.Alignment) (Job, error) {
	job := Job{
		Name:         spec.Name,
		Alignment:    aln,
		Sampler:      spec.Sampler,
		Model:        spec.Model,
		Burnin:       spec.Burnin,
		Samples:      spec.Samples,
		EMIterations: spec.EMIterations,
		Seed:         spec.Seed,
		SwapEvery:    spec.SwapEvery,
		SwapWindow:   spec.SwapWindow,
	}
	if spec.Proposals != nil {
		job.Proposals = *spec.Proposals
	}
	if spec.Chains != nil {
		job.Chains = *spec.Chains
	}
	if spec.AdaptLadder != nil {
		job.AdaptLadder = *spec.AdaptLadder
	}
	for _, f := range []struct {
		dst *float64
		src ckpt.Hex
	}{
		{&job.InitialTheta, spec.Theta},
		{&job.MaxTemp, spec.MaxTemp},
		{&job.ESSTarget, spec.ESSTarget},
		{&job.RHatTarget, spec.RHatTarget},
	} {
		v, err := f.src.Float()
		if err != nil {
			return Job{}, err
		}
		*f.dst = v
	}
	return job, job.Validate()
}

// LoadManifest parses a batch manifest and loads every job's alignment.
func LoadManifest(path string) ([]Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Manifest
	if err := ckpt.DecodeStrict(f, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Jobs) == 0 {
		return nil, fmt.Errorf("%s: manifest has no jobs", path)
	}
	base := filepath.Dir(path)
	jobs := make([]Job, 0, len(m.Jobs))
	for i, entry := range m.Jobs {
		entry = inherit(entry, m.Defaults)
		if entry.Phylip == "" {
			return nil, fmt.Errorf("%s: job %d (%q) has no phylip file", path, i, entry.Name)
		}
		if err := checkEntry(entry); err != nil {
			return nil, fmt.Errorf("%s: job %d (%q): %w", path, i, entry.Name, err)
		}
		seqPath := entry.Phylip
		if !filepath.IsAbs(seqPath) {
			seqPath = filepath.Join(base, seqPath)
		}
		aln, err := phylip.Load(seqPath)
		if err != nil {
			return nil, fmt.Errorf("%s: job %d (%q): %w", path, i, entry.Name, err)
		}
		spec := entry
		if spec.Name == "" {
			spec.Name = strings.TrimSuffix(filepath.Base(entry.Phylip), filepath.Ext(entry.Phylip))
		}
		job, err := JobFromSpec(spec, aln)
		if err != nil {
			return nil, fmt.Errorf("%s: job %d (%q): %w", path, i, entry.Name, err)
		}
		jobs = append(jobs, job)
	}
	if err := checkKeys(jobs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return jobs, nil
}
