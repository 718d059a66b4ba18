package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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
// Relative phylip paths resolve against the manifest's own directory.
// Job fields left out inherit first from defaults, then from the
// standalone-run defaults (sampler gmh, model f81, burnin 1000,
// samples 10000, 10 EM iterations, seed 1).
type Manifest struct {
	Defaults ManifestJob   `json:"defaults"`
	Jobs     []ManifestJob `json:"jobs"`
}

// ManifestJob is one manifest entry. Phylip is required on jobs (it is
// meaningless in defaults); everything else is optional. Proposals and
// Chains are pointers so an explicit zero — a spec that can never run —
// is distinguishable from an omitted field and rejected at load time
// instead of surfacing as a confusing mid-run default.
type ManifestJob struct {
	Name         string  `json:"name"`
	Phylip       string  `json:"phylip"`
	Theta        float64 `json:"theta"`
	Sampler      string  `json:"sampler"`
	Model        string  `json:"model"`
	Proposals    *int    `json:"proposals,omitempty"`
	Chains       *int    `json:"chains,omitempty"`
	Burnin       int     `json:"burnin"`
	Samples      int     `json:"samples"`
	EMIterations int     `json:"em_iterations"`
	Seed         uint64  `json:"seed"`
	// Tempering knobs of the heated sampler. MaxTemp 0 selects the
	// sampler default (8); AdaptLadder is a pointer so a per-job false
	// can override a defaults-level true; SwapWindow 0 selects the
	// controller default. All are rejected on jobs whose sampler is not
	// "heated" — a knob that would be silently ignored is a spec bug.
	MaxTemp     float64 `json:"max_temp"`
	SwapEvery   int     `json:"swap_every"`
	AdaptLadder *bool   `json:"adapt_ladder,omitempty"`
	SwapWindow  int     `json:"swap_window"`
	// Convergence stop targets: a sampling pass ends early once the
	// recorder's online ESS reaches ESSTarget (and, when RHatTarget is
	// also set, the online split R-hat falls to it). Zero disables the
	// rule. Rejected on multichain jobs, whose pooled quota makes a
	// per-chain target ill-defined.
	ESSTarget  float64 `json:"ess_target"`
	RHatTarget float64 `json:"rhat_target"`
}

// merged returns the entry with zero-valued fields filled from defaults.
func (m ManifestJob) merged(d ManifestJob) ManifestJob {
	if m.Theta == 0 {
		m.Theta = d.Theta
	}
	if m.Sampler == "" {
		m.Sampler = d.Sampler
	}
	if m.Model == "" {
		m.Model = d.Model
	}
	if m.Proposals == nil {
		m.Proposals = d.Proposals
	}
	if m.Chains == nil {
		m.Chains = d.Chains
	}
	if m.Burnin == 0 {
		m.Burnin = d.Burnin
	}
	if m.Samples == 0 {
		m.Samples = d.Samples
	}
	if m.EMIterations == 0 {
		m.EMIterations = d.EMIterations
	}
	if m.Seed == 0 {
		m.Seed = d.Seed
	}
	// Tempering defaults are inherited only by jobs that resolve to the
	// heated sampler: a defaults-level ladder configuration must not
	// poison the non-heated jobs of a mixed manifest (and validate
	// rejects these knobs only when a job sets them directly).
	if m.Sampler == "heated" {
		if m.MaxTemp == 0 {
			m.MaxTemp = d.MaxTemp
		}
		if m.SwapEvery == 0 {
			m.SwapEvery = d.SwapEvery
		}
		if m.AdaptLadder == nil {
			m.AdaptLadder = d.AdaptLadder
		}
		if m.SwapWindow == 0 {
			m.SwapWindow = d.SwapWindow
		}
	}
	// Stop targets are meaningful for every sampler except multichain, so
	// defaults-level targets must not poison a multichain job in a mixed
	// manifest.
	if m.Sampler != "multichain" {
		if m.ESSTarget == 0 {
			m.ESSTarget = d.ESSTarget
		}
		if m.RHatTarget == 0 {
			m.RHatTarget = d.RHatTarget
		}
	}
	return m
}

// validate rejects spec values that could only fail later, mid-run, with
// a less useful error: checkpoint resume additionally keys job state by
// name, so name collisions must die here too.
func (m ManifestJob) validate() error {
	if m.Theta < 0 {
		return fmt.Errorf("theta %v must not be negative", m.Theta)
	}
	if m.Proposals != nil && *m.Proposals <= 0 {
		return fmt.Errorf("proposal count %d must be positive (omit the field for the pool default)", *m.Proposals)
	}
	if m.Chains != nil && *m.Chains <= 0 {
		return fmt.Errorf("chain count %d must be positive (omit the field for the pool default)", *m.Chains)
	}
	if m.Burnin < 0 {
		return fmt.Errorf("burn-in %d must not be negative", m.Burnin)
	}
	if m.Samples < 0 {
		return fmt.Errorf("sample count %d must not be negative", m.Samples)
	}
	if m.EMIterations < 0 {
		return fmt.Errorf("EM iteration count %d must not be negative", m.EMIterations)
	}
	// Tempering knobs mirror the heated sampler's Start validation, so a
	// bad manifest dies at load time with the job's name attached instead
	// of mid-batch. On non-heated samplers the knobs would be silently
	// ignored, which hides spec mistakes — reject them there too.
	if m.MaxTemp != 0 && m.MaxTemp < 1 {
		return fmt.Errorf("max_temp %v must be at least 1 (omit or 0 for the default)", m.MaxTemp)
	}
	if m.SwapEvery < 0 {
		return fmt.Errorf("swap_every %d must not be negative", m.SwapEvery)
	}
	if m.SwapWindow < 0 {
		return fmt.Errorf("swap_window %d must not be negative", m.SwapWindow)
	}
	if m.Sampler != "heated" {
		if m.MaxTemp != 0 || m.SwapEvery != 0 || m.AdaptLadder != nil || m.SwapWindow != 0 {
			return fmt.Errorf("max_temp/swap_every/adapt_ladder/swap_window are only meaningful for the heated sampler (job resolves to %q)", m.Sampler)
		}
	}
	if m.ESSTarget < 0 {
		return fmt.Errorf("ess_target %v must not be negative", m.ESSTarget)
	}
	if m.RHatTarget != 0 && m.RHatTarget <= 1 {
		return fmt.Errorf("rhat_target %v must exceed 1 (omit or 0 to disable)", m.RHatTarget)
	}
	if m.Sampler == "multichain" && (m.ESSTarget != 0 || m.RHatTarget != 0) {
		return fmt.Errorf("ess_target/rhat_target are not supported by the multichain sampler")
	}
	return nil
}

// LoadManifest parses a batch manifest and loads every job's alignment.
func LoadManifest(path string) ([]Job, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Jobs) == 0 {
		return nil, fmt.Errorf("%s: manifest has no jobs", path)
	}
	base := filepath.Dir(path)
	jobs := make([]Job, 0, len(m.Jobs))
	for i, entry := range m.Jobs {
		entry = entry.merged(m.Defaults)
		if entry.Phylip == "" {
			return nil, fmt.Errorf("%s: job %d (%q) has no phylip file", path, i, entry.Name)
		}
		if err := entry.validate(); err != nil {
			return nil, fmt.Errorf("%s: job %d (%q): %w", path, i, entry.Name, err)
		}
		seqPath := entry.Phylip
		if !filepath.IsAbs(seqPath) {
			seqPath = filepath.Join(base, seqPath)
		}
		aln, err := loadAlignment(seqPath)
		if err != nil {
			return nil, fmt.Errorf("%s: job %d (%q): %w", path, i, entry.Name, err)
		}
		name := entry.Name
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(entry.Phylip), filepath.Ext(entry.Phylip))
		}
		job := Job{
			Name:         name,
			Alignment:    aln,
			InitialTheta: entry.Theta,
			Sampler:      entry.Sampler,
			Model:        entry.Model,
			Burnin:       entry.Burnin,
			Samples:      entry.Samples,
			EMIterations: entry.EMIterations,
			Seed:         entry.Seed,
			MaxTemp:      entry.MaxTemp,
			SwapEvery:    entry.SwapEvery,
			SwapWindow:   entry.SwapWindow,
			ESSTarget:    entry.ESSTarget,
			RHatTarget:   entry.RHatTarget,
		}
		if entry.AdaptLadder != nil {
			job.AdaptLadder = *entry.AdaptLadder
		}
		if entry.Proposals != nil {
			job.Proposals = *entry.Proposals
		}
		if entry.Chains != nil {
			job.Chains = *entry.Chains
		}
		jobs = append(jobs, job)
	}
	if err := checkKeys(jobs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return jobs, nil
}

func loadAlignment(path string) (*phylip.Alignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	aln, err := phylip.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return aln, nil
}
