package core

import (
	"math"

	"mpcgs/internal/stats"
)

// Diagnostics summarizes the health of a chain run, addressing the
// burn-in assessment problem of paper §2.3 ("methods also exist to
// evaluate if the burn-in period is over while the chain is in
// progress"): the effective number of independent draws of the
// statistic θ̂ depends on, a stationarity z-score over the post-burn-in
// log-likelihood trace, and a data-driven burn-in suggestion to compare
// against the configured one.
type Diagnostics struct {
	// ESS is the effective sample size of the post-burn-in trace of the
	// sufficient statistic S: the stream an ESS stop target reads, so a
	// run that stopped on its target reports its online ESS here.
	ESS float64
	// GewekeZ compares early versus late segments of the post-burn-in
	// log-likelihood trace; |z| below ~2 is consistent with
	// stationarity.
	GewekeZ float64
	// SuggestedBurnin is the data-driven cutoff detected on the full
	// log-likelihood trace (including the configured burn-in region).
	SuggestedBurnin int
	// BurninSufficient reports whether the configured burn-in covers the
	// detected transient. It is false for a frozen trace.
	BurninSufficient bool
	// Frozen reports that the post-burn-in log-likelihood trace holds a
	// single value: the chain never moved, so it cannot be diagnosed.
	// ESS is then 0 and GewekeZ NaN.
	Frozen bool
}

// Diagnose computes convergence diagnostics for a sample set.
func Diagnose(s *SampleSet) Diagnostics {
	post := s.PostBurninLogLik()
	d := Diagnostics{
		ESS:             stats.EffectiveSampleSize(s.PostBurninStats()),
		GewekeZ:         stats.Geweke(post, 0.2, 0.5),
		SuggestedBurnin: stats.DetectBurnin(s.LogLik),
		Frozen:          len(post) >= 2 && stats.Constant(post),
	}
	d.BurninSufficient = !d.Frozen && s.Burnin >= d.SuggestedBurnin &&
		(math.IsNaN(d.GewekeZ) || math.Abs(d.GewekeZ) < 2.5)
	return d
}

// RHat computes the Gelman-Rubin potential scale reduction factor across
// several independent runs' post-burn-in log-likelihood traces, the
// multi-chain convergence check of §2.3. Traces are truncated to the
// shortest.
func RHat(sets []*SampleSet) float64 {
	if len(sets) < 2 {
		return math.NaN()
	}
	minLen := math.MaxInt
	for _, s := range sets {
		if n := len(s.PostBurninLogLik()); n < minLen {
			minLen = n
		}
	}
	if minLen < 2 {
		return math.NaN()
	}
	chains := make([][]float64, len(sets))
	for i, s := range sets {
		chains[i] = s.PostBurninLogLik()[:minLen]
	}
	return stats.GelmanRubin(chains)
}
