// Package tempering is the temperature-ladder controller of the MC³
// (Metropolis-coupled MCMC) sampler: it owns the β schedule the heated
// rungs temper their likelihoods with, tracks per-adjacent-pair swap
// acceptance in sliding windows, and — when adaptation is on — retunes
// the ladder at runtime toward uniform swap acceptance across pairs, the
// way the production LAMARC package adapts its heating at runtime.
//
// # Why adapt
//
// A fixed geometric ladder spends its rungs uniformly in log-temperature
// space, but the posterior decides where the hard temperature gaps are:
// on multimodal tree spaces some adjacent pairs swap constantly (the rungs
// are redundant) while others almost never do (the ladder is broken there,
// and states cannot ferry down to the cold chain). Uniform swap acceptance
// across pairs is the standard optimality target (Vousden, Farr & Mandel
// 2016): it equalizes the round-trip flux of states through the ladder.
//
// # The update
//
// The ladder is parameterized by the log-temperature gaps
//
//	g_i = log T_{i+1} − log T_i  (i = 0..P−2, all g_i > 0),
//
// with both endpoints pinned: T_0 = 1 (the cold chain is always the
// untempered posterior) and T_{P−1} = MaxTemp (the configured ceiling).
// After every recorded swap attempt during the adaptation phase, each
// gap takes one stochastic-approximation step against the windowed
// per-pair acceptance rates a_i:
//
//	g_i ← g_i · exp(κ_t · (a_i − ā)),   κ_t = κ0 · t0 / (t0 + t),
//
// then the gaps are renormalized to keep Σ g_i = log MaxTemp. A pair
// accepting more swaps than the average has its temperature gap widened,
// one accepting fewer has it narrowed, so the rates are driven toward
// each other; the decaying gain κ_t makes the ladder settle (vanishing
// adaptation) instead of chasing window noise forever. The caller freezes
// adaptation after burn-in — the ladder then holds still, so recorded
// draws target fixed, correct distributions.
//
// # Determinism
//
// The controller draws no randomness of its own: its state is a pure
// function of the recorded swap-attempt history, which is what makes a
// kill/resume with adaptation on bit-identical — the snapshot carries the
// betas, gaps, windows and adaptation clock, and the resumed controller
// continues exactly where the interrupted one stopped.
package tempering

import (
	"fmt"
	"math"
)

// Adaptation constants: the initial gain and the decay horizon (in swap
// attempts) of the stochastic-approximation schedule, and the floor that
// keeps every log-temperature gap strictly positive.
//
// The gain is small because each update is driven by a single binary
// swap outcome (a Robbins-Monro step, variance a(1−a) per observation),
// and the horizon is long deliberately: early burn-in rates are
// dominated by the equilibration transient (all rungs start at the same
// tree, so early swaps accept at biased rates), and a fast-decaying gain
// would lock the ladder onto that transient. With a slow decay the late
// — equilibrated — attempts still carry enough gain to correct the
// early bias before the freeze.
const (
	kappa0 = 0.05
	tau0   = 2000.0
	minGap = 1e-3
)

// DefaultWindow is the sliding-window size (per adjacent pair) used when
// Config.Window is zero.
const DefaultWindow = 64

// Config parameterizes a ladder controller.
type Config struct {
	// Chains is the ladder size P (≥ 1).
	Chains int
	// MaxTemp is the hottest rung's temperature T_{P−1} (≥ 1). 1 makes
	// the ladder flat (every rung cold).
	MaxTemp float64
	// Adapt turns on swap-rate-driven ladder adaptation. With it off the
	// ladder is the fixed geometric reference schedule.
	Adapt bool
	// Window is the sliding-window size for per-pair swap-rate tracking;
	// 0 selects DefaultWindow.
	Window int
}

// window is one adjacent pair's sliding record of swap outcomes: a ring
// buffer of the last cap attempts (1 = accepted).
type window struct {
	buf  []uint8
	head int // next write position
	n    int // filled entries
	acc  int // accepted entries among the filled ones
}

func (w *window) push(accepted bool) {
	v := uint8(0)
	if accepted {
		v = 1
	}
	if w.n == len(w.buf) {
		w.acc -= int(w.buf[w.head])
	} else {
		w.n++
	}
	w.buf[w.head] = v
	w.acc += int(v)
	w.head = (w.head + 1) % len(w.buf)
}

// rate returns the windowed acceptance rate, and whether the window has
// any data at all.
func (w *window) rate() (float64, bool) {
	if w.n == 0 {
		return 0, false
	}
	return float64(w.acc) / float64(w.n), true
}

// logical returns the window's outcomes oldest-to-newest, the canonical
// serialization order.
func (w *window) logical() []byte {
	out := make([]byte, 0, w.n)
	start := (w.head - w.n + len(w.buf)) % len(w.buf)
	for k := 0; k < w.n; k++ {
		out = append(out, w.buf[(start+k)%len(w.buf)])
	}
	return out
}

// Ladder is the temperature-ladder controller of one heated run. It is
// not safe for concurrent use; the run's swap loop owns it.
type Ladder struct {
	cfg    Config
	window int
	// betas holds β_i = 1/T_i per rung; betas[0] is always exactly 1.
	betas []float64
	// gaps holds the log-temperature gaps the adaptation moves; kept in
	// sync with betas (betas are the authoritative tempering exponents,
	// gaps the authoritative adaptation coordinates).
	gaps []float64
	// attempts/accepts are cumulative per-pair counters (diagnostics and
	// the per-pair swap-rate report); estAttempts/estAccepts count only
	// the estimation phase (attempts recorded with adaptNow false, i.e.
	// after the freeze), the rates that describe the ladder actually
	// used for the recorded draws.
	attempts    []int64
	accepts     []int64
	estAttempts []int64
	estAccepts  []int64
	wins        []window
	// adapts counts stochastic-approximation updates applied, the clock
	// of the decaying gain.
	adapts int64
	// canAdapt is false when the configuration leaves nothing to adapt:
	// adaptation off, fewer than 3 rungs (both endpoints are pinned), or
	// a flat ladder (MaxTemp 1).
	canAdapt bool
}

// New builds a ladder controller. The initial schedule is the geometric
// ladder T_i = MaxTemp^{i/(P−1)} in both modes, so an adaptive run starts
// from exactly the fixed reference.
func New(cfg Config) (*Ladder, error) {
	if cfg.Chains < 1 {
		return nil, fmt.Errorf("tempering: ladder needs at least 1 chain, got %d", cfg.Chains)
	}
	if cfg.MaxTemp < 1 || math.IsNaN(cfg.MaxTemp) || math.IsInf(cfg.MaxTemp, 0) {
		return nil, fmt.Errorf("tempering: MaxTemp %v must be a finite value at least 1", cfg.MaxTemp)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("tempering: swap window %d must not be negative", cfg.Window)
	}
	w := cfg.Window
	if w == 0 {
		w = DefaultWindow
	}
	p := cfg.Chains
	l := &Ladder{
		cfg:    cfg,
		window: w,
		betas:  make([]float64, p),
	}
	// The geometric reference schedule, bit-identical to the historical
	// fixed ladder: β_i = MaxTemp^{−i/(P−1)}.
	for i := range l.betas {
		if p == 1 {
			l.betas[i] = 1
			break
		}
		l.betas[i] = math.Pow(cfg.MaxTemp, -float64(i)/float64(p-1))
	}
	l.betas[0] = 1
	if p > 1 {
		logMaxT := math.Log(cfg.MaxTemp)
		l.gaps = make([]float64, p-1)
		for i := range l.gaps {
			l.gaps[i] = logMaxT / float64(p-1)
		}
		l.attempts = make([]int64, p-1)
		l.accepts = make([]int64, p-1)
		l.estAttempts = make([]int64, p-1)
		l.estAccepts = make([]int64, p-1)
		l.wins = make([]window, p-1)
		for i := range l.wins {
			l.wins[i].buf = make([]uint8, w)
		}
		l.canAdapt = cfg.Adapt && p >= 3 && logMaxT > 0
	}
	return l, nil
}

// Chains returns the ladder size P.
func (l *Ladder) Chains() int { return len(l.betas) }

// Adaptive reports whether this controller was configured to adapt.
func (l *Ladder) Adaptive() bool { return l.cfg.Adapt }

// Window returns the effective sliding-window size.
func (l *Ladder) Window() int { return l.window }

// Adaptations returns the number of stochastic-approximation updates
// applied so far. Zero on an adaptive ladder means adaptation never
// engaged — typically a burn-in too short for every pair's window to
// fill once (the warm-up), worth surfacing to the user.
func (l *Ladder) Adaptations() int64 { return l.adapts }

// Beta returns rung i's tempering exponent β_i.
func (l *Ladder) Beta(i int) float64 { return l.betas[i] }

// Betas returns a copy of the current β schedule.
func (l *Ladder) Betas() []float64 { return append([]float64(nil), l.betas...) }

// PairAttempts returns a copy of the cumulative per-pair swap-attempt
// counts (index i is the (i, i+1) pair).
func (l *Ladder) PairAttempts() []int64 { return append([]int64(nil), l.attempts...) }

// PairAccepts returns a copy of the cumulative per-pair accepted-swap
// counts.
func (l *Ladder) PairAccepts() []int64 { return append([]int64(nil), l.accepts...) }

// EstPairAttempts returns a copy of the estimation-phase (post-freeze)
// per-pair swap-attempt counts.
func (l *Ladder) EstPairAttempts() []int64 { return append([]int64(nil), l.estAttempts...) }

// EstPairAccepts returns a copy of the estimation-phase per-pair
// accepted-swap counts.
func (l *Ladder) EstPairAccepts() []int64 { return append([]int64(nil), l.estAccepts...) }

// Record observes one swap attempt on adjacent pair (pair, pair+1). When
// adaptNow is true (the run is still in its adaptation phase — burn-in)
// and the configuration has anything to adapt, the ladder takes one
// stochastic-approximation step; afterwards Beta(i) reflects the moved
// schedule. With adaptNow false the ladder only does bookkeeping, so a
// frozen ladder never moves.
func (l *Ladder) Record(pair int, accepted, adaptNow bool) {
	l.attempts[pair]++
	if accepted {
		l.accepts[pair]++
	}
	if !adaptNow {
		l.estAttempts[pair]++
		if accepted {
			l.estAccepts[pair]++
		}
	}
	l.wins[pair].push(accepted)
	if adaptNow && l.canAdapt && l.warmedUp() {
		l.adaptStep(pair, accepted)
	}
}

// warmedUp reports whether every pair's sliding window has filled at
// least once. Until then the rate estimates are dominated by the first
// few — equilibration-transient — attempts, and adapting on them would
// steer the ladder toward a profile that evaporates as the chains reach
// their stationary regimes.
func (l *Ladder) warmedUp() bool {
	for i := range l.wins {
		if l.wins[i].n < len(l.wins[i].buf) {
			return false
		}
	}
	return true
}

// adaptStep applies one gain-decayed Robbins-Monro update to the
// attempted pair's gap — driven by that attempt's fresh binary outcome
// against the windowed mean rate of all pairs, so the feedback never
// acts on a stale estimate of the gap it is moving — then renormalizes
// the gaps to the pinned ladder height and rebuilds the β schedule.
// In expectation the update is κ·(a_pair − ā): a pair accepting more
// swaps than the ladder average has its temperature gap widened, one
// accepting fewer has it narrowed, until the profile is flat.
func (l *Ladder) adaptStep(pair int, accepted bool) {
	mean := 0.0
	for i := range l.wins {
		r, _ := l.wins[i].rate()
		mean += r
	}
	mean /= float64(len(l.wins))
	x := 0.0
	if accepted {
		x = 1
	}
	kappa := kappa0 * tau0 / (tau0 + float64(l.adapts))
	l.adapts++
	l.gaps[pair] *= math.Exp(kappa * (x - mean))
	sum := 0.0
	for i := range l.gaps {
		if l.gaps[i] < minGap {
			l.gaps[i] = minGap
		}
		sum += l.gaps[i]
	}
	// Pin the endpoints: the gaps always span exactly log MaxTemp.
	scale := math.Log(l.cfg.MaxTemp) / sum
	logT := 0.0
	for i := range l.gaps {
		l.gaps[i] *= scale
		logT += l.gaps[i]
		l.betas[i+1] = math.Exp(-logT)
	}
	l.betas[0] = 1
}

// WindowState is the serialized form of one pair's sliding window: the
// recorded outcomes oldest-to-newest (1 = accepted swap).
type WindowState struct {
	Outcomes []byte
}

// State is the serializable runtime state of a ladder controller — the
// part of an adapted ladder that is not derivable from anything else and
// must join every heated snapshot.
type State struct {
	Adapt       bool
	Window      int
	Betas       []float64
	Gaps        []float64
	Attempts    []int64
	Accepts     []int64
	EstAttempts []int64
	EstAccepts  []int64
	Windows     []WindowState
	Adapts      int64
}

// Snapshot exports the controller's state.
func (l *Ladder) Snapshot() *State {
	s := &State{
		Adapt:       l.cfg.Adapt,
		Window:      l.window,
		Betas:       append([]float64(nil), l.betas...),
		Gaps:        append([]float64(nil), l.gaps...),
		Attempts:    append([]int64(nil), l.attempts...),
		Accepts:     append([]int64(nil), l.accepts...),
		EstAttempts: append([]int64(nil), l.estAttempts...),
		EstAccepts:  append([]int64(nil), l.estAccepts...),
		Adapts:      l.adapts,
	}
	for i := range l.wins {
		s.Windows = append(s.Windows, WindowState{Outcomes: l.wins[i].logical()})
	}
	return s
}

// Restore overwrites the controller with a snapshot taken from a ladder
// of the same configuration. Mismatched configurations — a different
// rung count, window size or adaptation mode — are rejected: the saved
// schedule would be meaningless under the new configuration.
func (l *Ladder) Restore(s *State) error {
	p := len(l.betas)
	if s == nil {
		return fmt.Errorf("tempering: nil ladder snapshot")
	}
	if s.Adapt != l.cfg.Adapt {
		return fmt.Errorf("tempering: snapshot adaptation mode (adapt=%v) does not match the run (adapt=%v)", s.Adapt, l.cfg.Adapt)
	}
	if s.Window != l.window {
		return fmt.Errorf("tempering: snapshot swap window %d does not match the run's %d", s.Window, l.window)
	}
	if len(s.Betas) != p {
		return fmt.Errorf("tempering: snapshot has %d rungs, ladder has %d", len(s.Betas), p)
	}
	if s.Betas[0] != 1 {
		return fmt.Errorf("tempering: snapshot cold rung has beta %v, want exactly 1", s.Betas[0])
	}
	for i := 1; i < p; i++ {
		if !(s.Betas[i] > 0 && s.Betas[i] <= s.Betas[i-1]) {
			return fmt.Errorf("tempering: snapshot betas not a positive non-increasing ladder at rung %d", i)
		}
	}
	if !l.cfg.Adapt {
		// A non-adaptive ladder is fully determined by its configuration:
		// the snapshot must carry exactly the geometric schedule this run
		// recomputed, or MaxTemp/Chains changed since the snapshot.
		for i := range l.betas {
			if s.Betas[i] != l.betas[i] {
				return fmt.Errorf("tempering: snapshot rung %d has beta %v, fixed ladder has %v (MaxTemp/Chains changed?)",
					i, s.Betas[i], l.betas[i])
			}
		}
	} else if p > 1 {
		// An adapted schedule still spans exactly the configured ladder
		// height: its hottest rung must sit at MaxTemp (up to the float
		// error of the renormalization), or the snapshot was taken under
		// a different MaxTemp.
		logMaxT := math.Log(l.cfg.MaxTemp)
		if got := -math.Log(s.Betas[p-1]); math.Abs(got-logMaxT) > 1e-9*math.Max(1, logMaxT) {
			return fmt.Errorf("tempering: snapshot hottest rung at temperature %v, run is configured for MaxTemp %v",
				math.Exp(got), l.cfg.MaxTemp)
		}
		sum := 0.0
		for i, g := range s.Gaps {
			// A flat ladder (MaxTemp 1) has all-zero gaps; any real span
			// requires every gap positive and finite.
			if logMaxT == 0 {
				if g != 0 {
					return fmt.Errorf("tempering: snapshot gap %d is %v on a flat ladder, want 0", i, g)
				}
				continue
			}
			if !(g > 0) || math.IsInf(g, 0) {
				return fmt.Errorf("tempering: snapshot gap %d is %v, want a positive finite value", i, g)
			}
			sum += g
		}
		if math.Abs(sum-logMaxT) > 1e-9*math.Max(1, logMaxT) {
			return fmt.Errorf("tempering: snapshot gaps span %v, run's ladder height is %v (MaxTemp changed?)",
				sum, logMaxT)
		}
	}
	nPairs := p - 1
	if p == 1 {
		nPairs = 0
	}
	if len(s.Gaps) != nPairs || len(s.Attempts) != nPairs || len(s.Accepts) != nPairs ||
		len(s.EstAttempts) != nPairs || len(s.EstAccepts) != nPairs || len(s.Windows) != nPairs {
		return fmt.Errorf("tempering: snapshot pair state is ragged (%d gaps, %d attempts, %d accepts, %d est attempts, %d est accepts, %d windows for %d pairs)",
			len(s.Gaps), len(s.Attempts), len(s.Accepts), len(s.EstAttempts), len(s.EstAccepts), len(s.Windows), nPairs)
	}
	for i := 0; i < nPairs; i++ {
		if s.Attempts[i] < 0 || s.Accepts[i] < 0 || s.Accepts[i] > s.Attempts[i] {
			return fmt.Errorf("tempering: snapshot pair %d has %d accepts of %d attempts", i, s.Accepts[i], s.Attempts[i])
		}
		if s.EstAttempts[i] < 0 || s.EstAccepts[i] < 0 || s.EstAccepts[i] > s.EstAttempts[i] || s.EstAttempts[i] > s.Attempts[i] {
			return fmt.Errorf("tempering: snapshot pair %d has inconsistent estimation-phase counts (%d/%d of %d total)",
				i, s.EstAccepts[i], s.EstAttempts[i], s.Attempts[i])
		}
		if len(s.Windows[i].Outcomes) > l.window {
			return fmt.Errorf("tempering: snapshot pair %d window has %d outcomes, capacity is %d", i, len(s.Windows[i].Outcomes), l.window)
		}
		for _, v := range s.Windows[i].Outcomes {
			if v > 1 {
				return fmt.Errorf("tempering: snapshot pair %d window outcome %d is not 0/1", i, v)
			}
		}
	}
	if s.Adapts < 0 {
		return fmt.Errorf("tempering: snapshot adaptation clock %d is negative", s.Adapts)
	}
	copy(l.betas, s.Betas)
	copy(l.gaps, s.Gaps)
	copy(l.attempts, s.Attempts)
	copy(l.accepts, s.Accepts)
	copy(l.estAttempts, s.EstAttempts)
	copy(l.estAccepts, s.EstAccepts)
	l.adapts = s.Adapts
	for i := 0; i < nPairs; i++ {
		w := &l.wins[i]
		for j := range w.buf {
			w.buf[j] = 0
		}
		out := s.Windows[i].Outcomes
		copy(w.buf, out)
		w.n = len(out)
		w.head = len(out) % len(w.buf)
		w.acc = 0
		for _, v := range out {
			w.acc += int(v)
		}
	}
	return nil
}
