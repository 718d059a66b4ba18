package experiments

import (
	"math"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/stats"
)

// TemperingPoint is one row of the adaptive-tempering comparison: a
// heated (MC³) sampling pass on a §6-scale dataset, with the fixed
// geometric ladder or the swap-rate-adaptive one.
type TemperingPoint struct {
	Mode string // "fixed" or "adaptive"
	// Betas is the final β schedule (the adapted ladder, in adaptive
	// mode).
	Betas []float64
	// Rates are the estimation-phase (post-burn-in) per-adjacent-pair
	// swap acceptance rates: the profile of the ladder actually used for
	// the recorded draws. Burn-in attempts are excluded — in adaptive
	// mode the ladder is still moving there, and in both modes the
	// equilibration transient biases the early rates.
	Rates []float64
	// Spread is max−min over the per-pair rates: the flatness criterion
	// the adaptation minimizes (0 = perfectly uniform acceptance).
	Spread float64
	// ColdESS is the effective sample size of the cold chain's
	// post-burn-in trace of the sufficient statistic S.
	ColdESS float64
	// Swaps/SwapAttempts aggregate the ladder exchanges.
	Swaps, SwapAttempts int
}

// TemperingComparison runs the adaptive-vs-fixed ladder experiment: the
// same dataset, seed and ladder shape, once with the fixed geometric β
// schedule and once with swap-rate-driven adaptation during burn-in.
// The comparison criteria are the per-pair swap-rate spread (the
// adaptive ladder should be flatter — that is its objective) and the
// cold chain's ESS (flatter ladders ferry states to the cold chain more
// evenly, which should not cost mixing).
//
// The ladder is deliberately stretched (a high MaxTemp for its rung
// count), which makes the geometric schedule's swap profile visibly
// non-uniform — the regime where LAMARC-style runtime adaptation earns
// its keep.
func TemperingComparison(c Common) ([]TemperingPoint, error) {
	nSeq, seqLen := 12, 200
	chains, maxTemp := 6, 512.0
	burnin, samples := 2000, 4000
	if c.Scale == ScalePaper {
		burnin, samples = 5000, 20000
	}
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	dev := device.New(c.workers())
	defer dev.Close()
	eval, err := buildEvaluator(aln, dev)
	if err != nil {
		return nil, err
	}
	init, err := core.InitialTree(aln, 1.0, c.seed())
	if err != nil {
		return nil, err
	}
	cfg := core.ChainConfig{Theta: 1.0, Burnin: burnin, Samples: samples, Seed: c.seed() + 41}

	var out []TemperingPoint
	for _, mode := range []struct {
		name  string
		adapt bool
	}{{"fixed", false}, {"adaptive", true}} {
		h := core.NewHeated(eval, dev, chains)
		h.MaxTemp = maxTemp
		h.Adapt = mode.adapt
		res, err := core.Run(h, init, cfg)
		if err != nil {
			return nil, err
		}
		pt := TemperingPoint{
			Mode:         mode.name,
			Betas:        res.Betas,
			Rates:        res.EstPairSwapRates(),
			ColdESS:      stats.EffectiveSampleSize(res.Samples.PostBurninStats()),
			Swaps:        res.Swaps,
			SwapAttempts: res.SwapAttempts,
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range pt.Rates {
			if math.IsNaN(r) {
				continue
			}
			lo, hi = math.Min(lo, r), math.Max(hi, r)
		}
		if hi >= lo {
			pt.Spread = hi - lo
		}
		out = append(out, pt)
	}
	return out, nil
}
