package main

import (
	"fmt"
	"math"
	"time"

	"mpcgs/internal/core"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
)

// replayEvery is the step cadence at which the kernel replay takes a
// genealogy from the sampler, and replayTrees how many it takes.
const (
	replayEvery = 64
	replayTrees = 32
	replayReps  = 4
)

// replayTol is the relative tolerance every replayed log-likelihood must
// meet against the from-scratch serial evaluation.
const replayTol = 1e-9

// replayOutcome holds per-call kernel timings (µs) and the shapes of the
// replayed rounds. A GMH replay fills Bind, WaveEval and RebaseTo; an
// MC³ replay fills Stage and Commit.
type replayOutcome struct {
	Bind, WaveEval, RebaseTo, Stage, Commit, Resim []float64
	Depth, Bytes                                   []float64
	Patterns                                       int
	Candidates                                     int // per replayed round
	Resims, ResimFails                             int
	Checked                                        int
	Mismatches                                     []string
}

// replay re-samples the problem's first pass, takes the current genealogy
// from SnapshotStepper.Snapshot every replayEvery steps (and at the end of
// the pass), and replays one proposal round on each through the path the
// problem's sampler uses: resim.PickTarget/ResimulateScratch for the
// candidates, then for GMH the read-only wave path (Wave.BindRound,
// Wave.Eval, RebaseTo of the first candidate) and for MC³ the staged
// path (StageDelta, Commit). Each result is checked against
// LogLikelihoodSerial.
func (l *loaded) replay(workers int) (*replayOutcome, error) {
	e, err := l.engine(workers)
	if err != nil {
		return nil, err
	}
	defer e.dev.Close()
	stepper, err := e.sampler.Start(l.init, l.chainConfig(0, l.p.Theta0))
	if err != nil {
		return nil, err
	}
	ss, ok := stepper.(core.SnapshotStepper)
	if !ok {
		return nil, fmt.Errorf("%s: sampler cannot be snapshotted", l.p.Name)
	}
	var trees []*gtree.Tree
	for step := 1; !stepper.Done() && len(trees) < replayTrees; step++ {
		if err := stepper.Step(); err != nil {
			return nil, err
		}
		if step%replayEvery == 0 || stepper.Done() {
			snap, err := ss.Snapshot()
			if err != nil {
				return nil, err
			}
			trees = append(trees, snap.Chains[0].Tree)
		}
	}

	out := &replayOutcome{Patterns: e.eval.NPatterns(), Candidates: max(l.p.Proposals, 1)}
	check := func(what string, got float64, t *gtree.Tree) {
		out.Checked++
		if want, ok := matchesSerial(e.eval, t, got); !ok {
			out.Mismatches = append(out.Mismatches, fmt.Sprintf("%s: %s log-likelihood %v, serial %v", l.p.Name, what, got, want))
		}
	}
	usBetween := func(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) / 1e3 }
	us := func(t0 time.Time) float64 { return usBetween(t0, time.Now()) }
	src := rng.NewMT19937(uint32(l.p.Seed))
	scratch := resim.NewScratch()
	cache := e.eval.NewDeltaCache()
	wave := e.eval.NewWave(cache)
	for _, t := range trees {
		check("rebase", e.eval.Rebase(cache, t), t)
		phi := resim.PickTarget(t, src)
		cands := []*gtree.Tree{nil} // slot 0 stands for the current state
		for k := 0; k < out.Candidates; k++ {
			c := t.Clone()
			t0 := time.Now()
			err := resim.ResimulateScratch(c, phi, l.p.Theta0, src, scratch)
			out.Resim = append(out.Resim, us(t0))
			out.Resims++
			if err != nil {
				out.ResimFails++
				continue
			}
			cands = append(cands, c)
		}
		if len(cands) == 1 {
			continue
		}
		first := cands[1]

		// Each call is timed replayReps times back to back, so the device
		// pool is awake as it is in a running sampler; the first call of
		// a burst pays for waking it.
		if l.p.Sampler == "heated" {
			for k := 0; k < replayReps; k++ {
				t0 := time.Now()
				staged := e.eval.StageDelta(cache, first)
				if k > 0 {
					out.Stage = append(out.Stage, us(t0))
				} else {
					check("stage-delta", staged.LogLik(), first)
				}
				if k < replayReps-1 {
					staged.Discard()
					continue
				}
				t0 = time.Now()
				staged.Commit()
				out.Commit = append(out.Commit, us(t0))
			}
		} else {
			lls := make([]float64, len(cands))
			for k := 0; k < replayReps; k++ {
				t0 := time.Now()
				wave.BindRound(phi)
				t1 := time.Now()
				wave.Eval(cands, lls)
				if k > 0 {
					out.Bind = append(out.Bind, usBetween(t0, t1))
					out.WaveEval = append(out.WaveEval, us(t1)/float64(len(cands)-1))
				}
			}
			for i := 1; i < len(cands); i++ {
				check("wave", lls[i], cands[i])
			}
			for k := 0; k < replayReps; k++ {
				t0 := time.Now()
				ll := e.eval.RebaseTo(cache, first)
				if k > 0 {
					out.RebaseTo = append(out.RebaseTo, us(t0))
				} else {
					check("rebase-to", ll, first)
				}
				e.eval.RebaseTo(cache, t)
			}
		}

		depth := rootPathDepth(t, phi)
		out.Depth = append(out.Depth, float64(depth))
		// Rows one candidate touches — target, parent, the root path —
		// times patterns times four state lanes plus the scale lane.
		out.Bytes = append(out.Bytes, float64((2+depth)*out.Patterns*5*8))
	}
	if len(out.Bind) == 0 && len(out.Stage) == 0 {
		return nil, fmt.Errorf("%s: kernel replay found no genealogy to replay", l.p.Name)
	}
	return out, nil
}

// matchesSerial evaluates t from scratch with the serial reference
// oracle and reports whether got agrees with it to replayTol.
func matchesSerial(eval *felsen.Evaluator, t *gtree.Tree, got float64) (float64, bool) {
	want := eval.LogLikelihoodSerial(t)
	return want, math.Abs(got-want) <= replayTol*math.Abs(want)
}

// rootPathDepth counts the ancestors of φ's parent: the root path a
// proposal round shares.
func rootPathDepth(t *gtree.Tree, phi int) int {
	d := 0
	for v := t.Nodes[t.Nodes[phi].Parent].Parent; v != gtree.Nil; v = t.Nodes[v].Parent {
		d++
	}
	return d
}
