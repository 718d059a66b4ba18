// Package core implements the samplers of the paper and the
// Expectation-Maximization driver around them:
//
//   - MH: the serial single-chain Metropolis-Hastings sampler of the
//     LAMARC package (paper §4.2), the baseline of every comparison.
//   - GMH: the multiple-proposal Generalized Metropolis-Hastings sampler
//     of Calderhead applied to genealogies — the paper's contribution
//     (§4.1, §4.3, §5.1.4).
//   - MultiChain: the classic run-P-independent-chains parallelization
//     whose per-chain burn-in makes it non-scalable (paper §3, Fig. 6).
//   - Maximum likelihood estimation of θ over a sample set (§5.1.5,
//     Algorithm 2) and the EM loop that alternates sampling and
//     maximization (§5.1, Fig. 11).
package core

import (
	"fmt"
	"math"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// ChainConfig parameterizes one sampling run.
type ChainConfig struct {
	// Theta is the driving value θ0: the proposal kernel resimulates from
	// the coalescent prior at this parameter, and relative likelihoods are
	// measured against it.
	Theta float64
	// Burnin is the number of leading draws excluded from estimation.
	Burnin int
	// Samples is the number of post-burn-in draws to record.
	Samples int
	// Seed drives all pseudo-randomness of the run deterministically.
	Seed uint64
	// Trace, when set, streams every recorded draw to an append-only
	// sidecar file instead of accumulating it in memory: the recorder
	// stays bounded, and snapshots carry a durable byte offset into the
	// sidecar instead of the trace itself (O(interval) checkpoints).
	Trace *TraceSpec
	// ESSTarget, when positive, ends the run early once the online
	// effective-sample-size estimate of the post-burn-in stat stream
	// reaches it. The check is a pure function of the draw stream at a
	// fixed cadence, so a resumed run stops at exactly the same draw.
	ESSTarget float64
	// RHatTarget, when positive, additionally requires the online split
	// Gelman-Rubin statistic to fall to or below it (must exceed 1).
	RHatTarget float64
}

// TraceSpec configures the streaming trace sidecar of a run.
type TraceSpec struct {
	// Path of the sidecar file. Created if absent; an existing file is
	// recovered (torn tail truncated) and appended to, which is how the
	// passes of one EM estimation share a single sidecar.
	Path string
}

func (c *ChainConfig) validate() error {
	if c.Theta <= 0 {
		return fmt.Errorf("core: driving theta %v must be positive", c.Theta)
	}
	if c.Burnin < 0 {
		return fmt.Errorf("core: negative burn-in %d", c.Burnin)
	}
	if c.Samples <= 0 {
		return fmt.Errorf("core: need at least one sample, got %d", c.Samples)
	}
	if c.Trace != nil && c.Trace.Path == "" {
		return fmt.Errorf("core: trace spec has no sidecar path")
	}
	if c.ESSTarget < 0 {
		return fmt.Errorf("core: ESS target %v must not be negative", c.ESSTarget)
	}
	if c.RHatTarget < 0 {
		return fmt.Errorf("core: R-hat target %v must not be negative", c.RHatTarget)
	}
	if c.RHatTarget > 0 && c.RHatTarget <= 1 {
		return fmt.Errorf("core: R-hat target %v must exceed 1 (the statistic approaches 1 from above)", c.RHatTarget)
	}
	return nil
}

// SampleSet is the reduced record of a chain run. Each draw keeps only the
// coalescent event ages of its genealogy — "nothing more than the time
// intervals are stored for each sample" (paper §5.1.3) — together with the
// derived sufficient statistic S = Σ k(k-1)t for the constant-size
// likelihood, plus the data log-likelihood for traces. The first Burnin
// entries are the burn-in period.
type SampleSet struct {
	NTips  int
	Theta0 float64
	Burnin int
	Stats  []float64   // SumKKT per draw
	Ages   [][]float64 // sorted coalescent event ages per draw
	LogLik []float64   // log P(D|G) per draw
}

// Len returns the total number of recorded draws including burn-in.
func (s *SampleSet) Len() int { return len(s.Stats) }

// PostBurninStats returns the sufficient statistics of the estimation
// draws (everything after the burn-in period).
func (s *SampleSet) PostBurninStats() []float64 { return s.Stats[s.Burnin:] }

// PostBurninAges returns the per-draw coalescent event ages of the
// estimation draws.
func (s *SampleSet) PostBurninAges() [][]float64 { return s.Ages[s.Burnin:] }

// PostBurninLogLik returns the data log-likelihood trace of the
// estimation draws.
func (s *SampleSet) PostBurninLogLik() []float64 { return s.LogLik[s.Burnin:] }

// sumKKTFromAges computes S = Σ k(k-1)·t from sorted coalescent ages
// without retraversing the tree.
func sumKKTFromAges(nTips int, ages []float64) float64 {
	s := 0.0
	prev := 0.0
	k := nTips
	for _, a := range ages {
		s += float64(k*(k-1)) * (a - prev)
		prev = a
		k--
	}
	return s
}

// Result is the outcome of a sampling run.
type Result struct {
	Samples *SampleSet
	// Final is the last chain state, used to seed the next EM iteration.
	Final *gtree.Tree
	// Accepted counts accepted moves (MH) or draws that changed the chain
	// state (GMH); Proposals counts candidate genealogies generated.
	Accepted  int
	Proposals int
	// FailedProposals counts candidates whose neighbourhood resimulation
	// landed in a numerically infeasible region (GMH only): they enter the
	// proposal set with zero weight and can never be drawn, so the round
	// proceeds, but a high count signals a pathological driving θ.
	FailedProposals int
	// Swaps and SwapAttempts count temperature-ladder exchanges (heated
	// sampler only).
	Swaps        int
	SwapAttempts int
	// PairSwapAttempts and PairSwaps break the ladder exchanges down per
	// adjacent rung pair (heated only; index i is the (i, i+1) pair) —
	// the swap-rate profile the adaptive ladder controller flattens.
	// EstPairSwapAttempts/EstPairSwaps count only the estimation phase
	// (after burn-in, when an adaptive ladder is frozen): those are the
	// rates of the schedule the recorded draws were actually sampled
	// under, free of the equilibration transient.
	PairSwapAttempts    []int64
	PairSwaps           []int64
	EstPairSwapAttempts []int64
	EstPairSwaps        []int64
	// Betas is the final temperature ladder β_0..β_{P-1} (heated only);
	// with adaptation on it is the adapted schedule, otherwise the fixed
	// geometric one.
	Betas []float64
	// StoppedEarly reports that the run ended at its convergence target
	// (ESSTarget/RHatTarget) before exhausting the configured draw
	// budget; StopESS and StopRHat are the online diagnostics at the
	// stop decision.
	StoppedEarly      bool
	StopESS, StopRHat float64
	// LadderAdapted reports whether the run was configured for
	// swap-rate-driven ladder adaptation; LadderAdaptations counts the
	// updates actually applied. Zero updates on an adapted run means
	// adaptation never engaged: either the configuration has nothing to
	// adapt (fewer than 3 rungs — both endpoints are pinned — or a flat
	// MaxTemp=1 ladder), or the burn-in ended before the warm-up (every
	// pair's window filling once) completed.
	LadderAdapted     bool
	LadderAdaptations int64
}

// PairRates converts per-pair accept/attempt counts to acceptance rates
// (NaN for a pair never attempted), the one place the 0/0 convention is
// defined for reports. A ragged accepts slice (possible when the counts
// come straight off an untrusted wire, e.g. `mpcgs -inspect` on a
// hand-edited checkpoint) is treated as zero accepts for the missing
// pairs rather than panicking.
func PairRates(accepts, attempts []int64) []float64 {
	if len(attempts) == 0 {
		return nil
	}
	out := make([]float64, len(attempts))
	for i := range out {
		if attempts[i] == 0 {
			out[i] = math.NaN()
			continue
		}
		var acc int64
		if i < len(accepts) {
			acc = accepts[i]
		}
		out[i] = float64(acc) / float64(attempts[i])
	}
	return out
}

// EstPairSwapRates returns the estimation-phase (post-burn-in, frozen
// ladder) per-adjacent-pair swap acceptance rates.
func (r *Result) EstPairSwapRates() []float64 {
	return PairRates(r.EstPairSwaps, r.EstPairSwapAttempts)
}

// AcceptanceRate returns the fraction of state-changing draws.
func (r *Result) AcceptanceRate() float64 {
	if r.Proposals == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Proposals)
}

// seedSource derives an MT19937 from a 64-bit seed and a stream label via
// SplitMix64, keeping independent components decorrelated.
func seedSource(seed uint64, label uint64) *rng.MT19937 {
	state := seed ^ 0x5851f42d4c957f2d*label
	v := rng.SplitMix64(&state)
	m := &rng.MT19937{}
	m.SeedArray([]uint32{uint32(v), uint32(v >> 32), uint32(label)})
	return m
}
