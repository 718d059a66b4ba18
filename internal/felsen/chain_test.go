package felsen

// The fused chain kernel of the delta path (chainKernelAVX512, driven by
// runBlock) against the scalar tier, and the per-node path a dirty set
// that is not a chain takes, through StageDelta, LogLikelihoodDelta,
// RebaseTo and Rebase.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/subst"
)

// handTree builds a genealogy over nTips tips whose interior node
// nTips+k has children kids[k] and age ages[k]; the last is the root.
func handTree(tb testing.TB, nTips int, kids [][2]int, ages []float64) *gtree.Tree {
	tb.Helper()
	t := gtree.New(nTips)
	for i := range nTips {
		t.Nodes[i].Name = fmt.Sprint("s", i)
	}
	for k, ch := range kids {
		v := nTips + k
		t.Nodes[v].Child = ch
		t.Nodes[v].Age = ages[k]
		t.Nodes[ch[0]].Parent = v
		t.Nodes[ch[1]].Parent = v
	}
	t.Root = 2*nTips - 2
	if err := t.Validate(); err != nil {
		tb.Fatal(err)
	}
	return t
}

// handEval builds an evaluator over nPat distinct patterns of nTips
// tips (distinctColumns) with block size bs, under F81 with
// kernelMatrices' frequencies.
func handEval(tb testing.TB, nTips, nPat, bs int) *Evaluator {
	tb.Helper()
	model, err := subst.NewF81([4]float64{0.1, 0.2, 0.3, 0.4}, true)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(model, distinctColumns(nTips, nPat), device.Serial())
	if err != nil {
		tb.Fatal(err)
	}
	if e.nPatterns != nPat {
		tb.Fatalf("alignment compresses to %d patterns, want %d", e.nPatterns, nPat)
	}
	e.SetBlockSize(bs)
	return e
}

// chainFixture is a delta evaluation whose dirty rows form a chain of
// depth rows (1 to 6) and a cache it runs against. The tree has 11 tips
// and a spine of seven interior nodes, nodes 14 to 20 (the root), each
// joining the one below, on alternate sides, with a clean child: the
// lowest, node 14, joins tips 0 and 1, and the others in turn the
// cherries 11 (tips 2, 3), 12 (4, 5) and 13 (6, 7) and the tips 8, 9
// and 10. The edit moves the age of spine node 21-depth, so it and its
// ancestors are dirty, and chain rows read cached interior rows as well
// as tips.
type chainFixture struct {
	e     *Evaluator
	c     *DeltaCache
	edit  *gtree.Tree
	chain []int // the dirty nodes bottom-up
	// saved holds the tip table and the cache's lanes as the fixture
	// made them, which restore puts back.
	saved [3][]float64
}

func newChainFixture(tb testing.TB, nPat, bs, depth int) *chainFixture {
	tb.Helper()
	const nTips = 11
	kids := [][2]int{{2, 3}, {4, 5}, {6, 7}, {0, 1}}
	ages := []float64{0.05, 0.06, 0.07, 0.1}
	for j, clean := range []int{11, 8, 12, 9, 13, 10} {
		ch := [2]int{14 + j, clean}
		if j%2 == 1 {
			ch[0], ch[1] = ch[1], ch[0]
		}
		kids = append(kids, ch)
		ages = append(ages, 0.1*float64(j+2))
	}
	tree := handTree(tb, nTips, kids, ages)
	f := &chainFixture{e: handEval(tb, nTips, nPat, bs)}
	f.c = f.e.NewDeltaCache()
	f.e.Rebase(f.c, tree)
	f.edit = tree.Clone()
	low := 2*nTips - 1 - depth
	f.edit.Nodes[low].Age += 0.03
	for v := low; v != gtree.Nil; v = tree.Nodes[v].Parent {
		f.chain = append(f.chain, v)
	}
	f.save()
	return f
}

func (f *chainFixture) save() {
	f.saved = [3][]float64{slices.Clone(f.e.tipCond), slices.Clone(f.c.cond), slices.Clone(f.c.scale)}
}

func (f *chainFixture) restore() {
	copy(f.e.tipCond, f.saved[0])
	copy(f.c.cond, f.saved[1])
	copy(f.c.scale, f.saved[2])
}

// randomize fills the tip table and the cache with generated values, so
// every input the chain reads is a generic row rather than a one-hot tip
// or a real conditional. The values are only inputs: the bit tests
// compare tiers, not likelihoods.
func (f *chainFixture) randomize(g *kernelGen) {
	for _, block := range [][]float64{f.e.tipCond, f.c.cond} {
		for i := range block {
			block[i] = g.value()
		}
	}
	for i := range f.c.scale {
		f.c.scale[i] = -40 * g.value()
	}
	f.save()
}

// stage stages the edit against a copy of the cache and binds the
// evaluator back to the staged scratch (evalDelta unbinds it as it
// returns), so its blocks can be run again, alone.
func (f *chainFixture) stage() DeltaEval {
	cc := f.e.NewDeltaCache()
	cc.CopyFrom(f.c)
	d := f.e.StageDelta(cc, f.edit)
	d.ds.e = f.e
	return d
}

// input returns chain level k's clean input row: the lowest node's first
// child for k = 0, the child off the chain above it.
func (f *chainFixture) input(k int) []float64 {
	v := &f.edit.Nodes[f.chain[k]]
	in := v.Child[0]
	if k > 0 && in == f.chain[k-1] {
		in = v.Child[1]
	}
	if nTips := f.edit.NTips(); in >= nTips {
		return f.e.rowLanes(f.c.cond, nStates, in-nTips)
	}
	return f.e.rowLanes(f.e.tipCond, nStates, in)
}

// deltaRun is what one tier computes for a fixture's edit: the staged
// log-likelihood and terms, the cache after Commit, the one-shot delta,
// and RebaseTo's log-likelihood and cache.
type deltaRun struct {
	staged, delta, rebased float64
	terms                  []float64
	commit, rebase         [2][]float64
}

// runDelta evaluates edit against a copy of c through StageDelta (then
// Commit), LogLikelihoodDelta and RebaseTo, at the current tier, and
// fails tb unless the staged dirty set's chain flag is chain.
func runDelta(tb testing.TB, e *Evaluator, c *DeltaCache, edit *gtree.Tree, chain bool) deltaRun {
	tb.Helper()
	var out deltaRun
	cc := e.NewDeltaCache()
	cc.CopyFrom(c)
	d := e.StageDelta(cc, edit)
	if d.ds.chain != chain {
		tb.Fatalf("dirty set %v: chain = %v, want %v", d.ds.order, d.ds.chain, chain)
	}
	out.staged = d.LogLik()
	out.terms = slices.Clone(d.ds.terms)
	d.Commit()
	out.commit = [2][]float64{slices.Clone(cc.cond), slices.Clone(cc.scale)}
	out.delta = e.LogLikelihoodDelta(c, edit)
	cc.CopyFrom(c)
	out.rebased = e.RebaseTo(cc, edit)
	out.rebase = [2][]float64{slices.Clone(cc.cond), slices.Clone(cc.scale)}
	return out
}

// sameRuns fails t unless two tiers' runs agree bit for bit.
func sameRuns(t *testing.T, name string, want, got deltaRun) {
	t.Helper()
	sameBits(t, name+" StageDelta", []float64{want.staged}, []float64{got.staged})
	sameBits(t, name+" terms", want.terms, got.terms)
	sameBits(t, name+" Commit cond", want.commit[0], got.commit[0])
	sameBits(t, name+" Commit scale", want.commit[1], got.commit[1])
	sameBits(t, name+" LogLikelihoodDelta", []float64{want.delta}, []float64{got.delta})
	sameBits(t, name+" RebaseTo", []float64{want.rebased}, []float64{got.rebased})
	sameBits(t, name+" RebaseTo cond", want.rebase[0], got.rebase[0])
	sameBits(t, name+" RebaseTo scale", want.rebase[1], got.rebase[1])
}

// chainBails reports whether pattern p of a staged chain must leave the
// fused kernel: some row of it has no state at or above
// rescaleThreshold, by the kernel's tree of maxima, or its root
// likelihood lies outside [2^-1022, MaxFloat64]. It evaluates the rule
// on the values the kernel sees, which are never rescaled before that
// point, row by row from the bound inputs and matrices.
func chainBails(e *Evaluator, ds *deltaScratch, p int) bool {
	st := e.stride
	var s [nStates]float64
	for k := range ds.rows {
		rr := &ds.rows[k]
		l := s
		if k == 0 {
			l = lanesAt(rr.lc, st, p)
		}
		r := lanesAt(rr.rc, st, p)
		for x := range s {
			s[x] = dotRow(rr.m0, x, l) * dotRow(rr.m1, x, r)
		}
		if mayRescale(s) {
			return true
		}
	}
	f := e.freqs
	return !rootInRange(f[0]*s[0] + f[1]*s[1] + f[2]*s[2] + f[3]*s[3])
}

// TestAVX2ChainKernelBits compares the delta path at each vector tier,
// where the avx512 tier runs the fused chain kernel, with the scalar
// tier, which runs the per-node path alone: StageDelta's log-likelihood
// and terms, the cache after Commit (every row's state and scale lanes),
// LogLikelihoodDelta, and RebaseTo's log-likelihood and cache, bit for
// bit, and at avx512 the pattern where the fused kernel stops in each
// block (chainBails). The chain has 1 (the root alone), 2, 3 or 6 rows;
// the edited tree puts the chain child on the left at some rows and on
// the right at others. A block of n = 24..31 patterns (n%8 = 0..7) from
// an 8-aligned and an unaligned lo sits behind a first block. Each case
// plants one lane at one chain level in the first, middle or last
// 8-pattern group, or at the block's last pattern (in the n%8 tail,
// which the kernel takes as the group ending there): all four states of
// the level's clean input row, or state 0 of the root's (the root
// stage), set to 0, 5e-324, +Inf or NaN, or scaled by 1e-160 to a
// rescale-size value. A rescale-size plant is scaled back by 1e160 at
// the next level, so a level whose rescale test is missing is not
// rescued by the next one.
func TestAVX2ChainKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		g := &kernelGen{src: rng.NewMT19937(23)}
		const tiny = -1 // the rescale-size plant
		plants := []float64{tiny, 0, 5e-324, math.Inf(1), math.NaN()}
		for _, bs := range []int{128, 27} {
			for _, depth := range []int{1, 2, 3, 6} {
				for r := range 8 {
					n := 24 + r
					f := newChainFixture(t, bs+n, bs, depth)
					f.randomize(g)
					st := f.e.stride
					// Stage k < depth plants chain level k's input; stage
					// depth plants the root's; stage -1 plants nothing.
					for stage := -1; stage <= depth; stage++ {
						for grp := range 4 {
							for _, v := range plants {
								if stage < 0 && (grp > 0 || v != tiny) {
									continue // the case without a plant runs once
								}
								f.restore()
								p := bs + 8*grp + (3*grp+stage+8)%8
								if grp == 3 {
									p = bs + n - 1 // the n%8 tail, or the last group's last lane
								}
								plant := func(k, states int, scale float64) {
									for x := range states {
										if v == tiny {
											f.input(k)[x*st+p] *= scale
										} else {
											f.input(k)[x*st+p] = v
										}
									}
								}
								switch {
								case stage == depth:
									plant(depth-1, 1, 1e-160)
								case stage >= 0:
									plant(stage, nStates, 1e-160)
									if v == tiny && stage < depth-1 {
										plant(stage+1, nStates, 1e160)
									}
								}
								name := fmt.Sprintf("bs=%d/depth=%d/n=%d/stage=%d/group=%d/plant=%v", bs, depth, n, stage, grp, v)
								checkChain(t, vec, name, f)
							}
						}
					}
				}
			}
		}
	})
}

// checkChain runs one chain fixture at the scalar tier and at vector
// tier vec and compares the runs, and at the avx512 tier checks where
// the fused kernel stops in each block.
func checkChain(t *testing.T, vec tier, name string, f *chainFixture) {
	t.Helper()
	e := f.e
	kernelTier = tierScalar
	want := runDelta(t, e, f.c, f.edit, true)
	kernelTier = vec
	sameRuns(t, name, want, runDelta(t, e, f.c, f.edit, true))
	if vec != tierAVX512 {
		return
	}
	d := f.stage()
	defer d.Discard()
	for b := 0; b*e.blockSize < e.nPatterns; b++ {
		lo := b * e.blockSize
		hi := min(lo+e.blockSize, e.nPatterns)
		stop := hi
		if hi-lo < 8 {
			stop = lo // too short for the fused kernel
		}
		for p := lo; p < stop; p++ {
			if chainBails(e, d.ds, p) {
				stop = p - (p-lo)%8
				break
			}
		}
		if done := d.ds.chainVec(lo, hi, make([]float64, hi-lo)); lo+done != stop {
			t.Fatalf("%s block %d: fused kernel stopped at pattern %d, want %d", name, b, lo+done, stop)
		}
	}
}

// TestAVX2NonChainDirtySetBits: a dirty set that is not a chain takes
// the per-node path and gives the scalar tier's bits. On a balanced
// 8-tip tree, an edit of two interior nodes in the root's two subtrees
// dirties both and their ancestors, so the root reads two dirty
// children; a full Rebase dirties every interior node. Both are
// checked against the scalar tier at block sizes 128 and 27 (an
// unaligned second block), with generated inputs: Rebase's
// log-likelihood and cache, and the edit through StageDelta (then
// Commit), LogLikelihoodDelta and RebaseTo.
func TestAVX2NonChainDirtySetBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		g := &kernelGen{src: rng.NewMT19937(29)}
		kids := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {11, 10}, {12, 13}}
		ages := []float64{0.1, 0.15, 0.12, 0.2, 0.3, 0.25, 0.5}
		tree := handTree(t, 8, kids, ages)
		edit := tree.Clone()
		edit.Nodes[8].Age += 0.05
		edit.Nodes[10].Age += 0.05
		for _, bs := range []int{128, 27} {
			for _, nPat := range []int{157, 160} {
				name := fmt.Sprintf("bs=%d/n=%d", bs, nPat)
				e := handEval(t, 8, nPat, bs)
				for i := range e.tipCond {
					e.tipCond[i] = g.value()
				}
				// A full dirty set, marked as Rebase marks it, is not a
				// chain.
				ds := e.deltaPool.Get().(*deltaScratch)
				ds.order = ds.order[:0]
				for i := range ds.dirty {
					ds.dirty[i] = i >= tree.NTips()
					if ds.dirty[i] {
						ds.order = append(ds.order, i)
					}
				}
				sortByAge(tree, ds.order)
				e.evalDelta(e.NewDeltaCache(), tree, ds, true)
				if ds.chain {
					t.Fatalf("%s: a full Rebase's dirty set %v was taken for a chain", name, ds.order)
				}
				e.deltaPool.Put(ds)

				rebase := func(tr tier) (float64, *DeltaCache) {
					kernelTier = tr
					c := e.NewDeltaCache()
					return e.Rebase(c, tree), c
				}
				wantLL, want := rebase(tierScalar)
				gotLL, got := rebase(vec)
				sameBits(t, name+" Rebase", []float64{wantLL}, []float64{gotLL})
				sameBits(t, name+" Rebase cond", want.cond, got.cond)
				sameBits(t, name+" Rebase scale", want.scale, got.scale)

				kernelTier = tierScalar
				wantRun := runDelta(t, e, want, edit, false)
				kernelTier = vec
				sameRuns(t, name+" edit", wantRun, runDelta(t, e, want, edit, false))
			}
		}
	})
}
