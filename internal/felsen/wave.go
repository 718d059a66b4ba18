package felsen

// Wave-fused multiple-proposal evaluation.
//
// Every candidate of one GMH round resimulates the same neighbourhood of
// the current state (the auxiliary variable φ, paper §4.3): the proposal
// rewrites exactly the target node φ and its parent slot, and the parent
// slot re-attaches to the same ancestor. Consequently all N candidates
// share the base genealogy's root path above the neighbourhood — the
// parent's ancestors up to the root — and, hanging off every root-path
// node, the same untouched sibling subtree whose conditionals already sit
// in the delta cache. The per-candidate delta evaluation still walks that
// shared path N times, recomputing for each candidate the identical
// clean-side dot products.
//
// A Wave lifts that shared work out of the proposal loop. BindRound
// computes, once per round, the outer-partial lanes of every root-path
// node v:
//
//	outer_v[x](pat) = Σ_y M_{v→clean(v)}[x][y] · cond_{clean(v),y}(pat)
//
// — the clean-child dot product the kernel would otherwise evaluate per
// candidate — plus the round-invariant transition matrices of the chain
// edges above the ancestor. A candidate's evaluation is then a row of
// (pattern-block) cells: each cell computes its block's target and parent
// rows, walks the root path multiplying a single dirty-side dot product
// against the shared outer lane per node, and finishes with the block's
// root-contraction partial. Per-proposal work drops from two dot products
// per root-path node to one, and from two fresh transition matrices per
// dirty node to five per proposal plus a shared set.
//
// Those cells run in one of two dispatches, chosen per round by InKernel
// with the delta evaluator's own block-split test on one candidate's
// (2 + path depth) rows. A candidate too small to split is evaluated by
// EvalOne on the proposal thread that produced it, its cells in block
// order — the paper's proposal kernel, where each thread computes its own
// candidate's likelihood (§5.2.1) — so a small round costs one launch.
// A larger candidate is evaluated after the resimulation launch by Eval,
// which runs the whole candidate set as one fused (proposal × pattern-
// block) grid.
//
// # Bit-identity with the per-candidate path
//
// The wave is not an approximation and not merely "close": it returns the
// exact bits LogLikelihoodDelta returns for every candidate. That holds
// because the lift only ever precomputes one full operand of a
// multiplication the per-candidate kernel performs anyway — outer_v is
// evaluated with the same left-to-right association as runBlock's fused
// dot product, from the same cached lanes and the same deterministic
// TransitionInto matrices — and IEEE-754 multiplication and addition are
// commutative at the bit level, so (inner·outer) and (ls+rs) do not care
// which side was cached. The per-node operation order (children dots,
// running maximum, rescale test, scale add) matches runBlock exactly, the
// per-pattern order within a block and the block partial order within a
// proposal are fixed, and cells write disjoint slots. Eval and EvalOne run
// the same cell function and sum a candidate's block partials in the same
// order. Results are therefore bit-identical across worker counts, either
// dispatch, repeat runs, kill/resume, and against the per-candidate oracle
// path.
//
// # Validity contract
//
// A bound round is valid only for candidate trees that differ from the
// cache's base exactly in the slots {φ, parent(φ)}, with the parent slot
// attached to the same ancestor (or being the root when parent(φ) was the
// root) — precisely what resim.Scratch.Sample produces on a copy of the
// base after Analyze(base, φ, θ) succeeded (resim.ResimulateScratch is
// the two in one call). BindRound reads only φ and the cache's base, so
// it may run before the candidates exist. Anything that moves the cache's
// base (RebaseTo, Rebase, Commit) or changes φ invalidates the binding:
// callers must BindRound again after every accepted move and every fresh
// φ draw. Eval and EvalOne panic without a bound round.

import (
	"math"

	"mpcgs/internal/gtree"
	"mpcgs/internal/subst"
)

// waveProp is one live candidate of the bound round: the output slot its
// log-likelihood lands in (Eval only), and the five proposal-specific
// transition matrices (the target's two child edges, the parent's two
// child edges, and the ancestor→parent edge — every other edge the
// evaluation touches is round-invariant and shared).
type waveProp struct {
	slot int
	// tm0/tm1 are the target's child-edge matrices in Child-array order.
	tm0, tm1 subst.Matrix
	// pmPhi is the parent→φ edge matrix, pmClean the parent's other
	// (clean) child edge matrix; pclean that child's node index.
	pmPhi, pmClean subst.Matrix
	pclean         int
	// am is the ancestor→parent edge matrix; unused in the root case.
	am subst.Matrix
	// tl/tr/cv are the target's children's and the parent's clean child's
	// full-length lane sources (tip table or cache), resolved once per
	// proposal so the grid cells select tip cells by slicing instead of
	// re-branching per cell.
	tlc, tls []float64
	trc, trs []float64
	cvc, cvs []float64
}

// waveScratch is the per-cell working memory of the wave kernel: the
// working row — one node's conditional lanes for one pattern block,
// overwritten in place as the cell walks parent → root path — and the
// target row, which the vector path stores between the target and parent
// passes (the scalar path carries it in registers). prop holds EvalOne's
// candidate setup, so concurrent EvalOne calls share nothing writable.
type waveScratch struct {
	cond   []float64 // nStates lanes of blockSize patterns each
	scale  []float64 // blockSize
	tcond  []float64 // the target row, laid out like cond
	tscale []float64
	prop   waveProp
}

// Wave evaluates GMH proposal sets against one DeltaCache with a
// per-round outer-partial lift, as fused (proposal × pattern-block) grids
// or one candidate per proposal thread. A Wave is bound to one evaluator
// and one cache; one sampler run owns it, like a resim.Scratch. Only
// EvalOne may be called concurrently, and only between binds.
type Wave struct {
	e *Evaluator
	c *DeltaCache

	// Round state, set by BindRound.
	phi      int
	parent   int
	rootCase bool
	// path holds the parent's ancestors bottom-up: path[0] is the
	// ancestor, path[len-1] the root. Empty in the root case.
	path []int
	// cleanCh[k] is path[k]'s child off the chain (the untouched sibling
	// subtree); chainMats[k] the path[k]→path[k-1] edge matrix for k ≥ 1
	// (the k = 0 edge, ancestor→parent, is proposal-specific);
	// cleanMats[k] the path[k]→cleanCh[k] edge matrix.
	cleanCh   []int
	chainMats []subst.Matrix
	cleanMats []subst.Matrix
	// outer holds the lift lanes, path-node-major: node k's state lane x
	// is outer[(k*nStates+x)*nPatterns:][:nPatterns]. cleanCond[k] and
	// cleanScale[k] are cleanCh[k]'s state lanes and rescaling-log lane
	// (cache or tip-table slices), resolved once per round so neither the
	// lift blocks nor the grid cells branch on tip-ness.
	outer      []float64
	cleanCond  [][]float64
	cleanScale [][]float64
	bound      bool

	// Eval state: the live candidates and the (block, proposal) partial
	// sums, sums[b*len(props)+li], reduced per proposal in block order.
	props []waveProp
	sums  []float64

	liftKernel func(b int)
	cellKernel func(cell int)
}

// NewWave builds a wave evaluator over c's conditionals. The cache may be
// rebased freely afterwards; each BindRound reads the then-current base.
func (e *Evaluator) NewWave(c *DeltaCache) *Wave {
	w := &Wave{e: e, c: c}
	w.liftKernel = w.runLiftBlock
	w.cellKernel = w.runCell
	return w
}

// rowOf returns a clean node's conditional lanes: the shared tip table for
// tips (scale lane the shared all-zero lane), the cache row otherwise —
// the same sources the per-candidate kernel reads clean rows from.
func (w *Wave) rowOf(node int) (cond, scale []float64) {
	e := w.e
	nPat := e.nPatterns
	nTips := len(e.seqs)
	if node < nTips {
		return e.tipCond[node*nStates*nPat : (node+1)*nStates*nPat], e.zeroScale
	}
	r := node - nTips
	return w.c.cond[r*nStates*nPat : (r+1)*nStates*nPat], w.c.scale[r*nPat : (r+1)*nPat]
}

// BindRound fixes the round's resimulation target φ and computes the
// outer-partial lift against the cache's current base: the root path, its
// round-invariant edge matrices, and every path node's clean-side dot
// product lanes. Must be called after the cache is settled on the current
// state and before Eval; any cache rebase or new φ requires a new bind.
//
//mpcgs:hotpath
func (w *Wave) BindRound(phi int) {
	if !w.c.valid {
		panic("felsen: Wave.BindRound on cache with no base; call Rebase first")
	}
	base := w.c.base
	if phi < base.NTips() || phi >= base.NNodes() || phi == base.Root {
		panic("felsen: Wave.BindRound target is not a non-root interior node")
	}
	e := w.e
	w.phi = phi
	w.parent = base.Nodes[phi].Parent
	w.rootCase = base.Nodes[w.parent].Parent == gtree.Nil

	// The shared root path: the parent's ancestors bottom-up. The chain
	// child entering path[k] is the parent for k = 0 and path[k-1] above.
	w.path = w.path[:0]
	w.cleanCh = w.cleanCh[:0]
	prev := w.parent
	for v := base.Nodes[w.parent].Parent; v != gtree.Nil; v = base.Nodes[v].Parent {
		w.path = append(w.path, v)
		vn := &base.Nodes[v]
		if vn.Child[0] == prev {
			w.cleanCh = append(w.cleanCh, vn.Child[1])
		} else {
			w.cleanCh = append(w.cleanCh, vn.Child[0])
		}
		prev = v
	}
	depth := len(w.path)
	if cap(w.chainMats) < depth {
		w.chainMats = make([]subst.Matrix, depth) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
		w.cleanMats = make([]subst.Matrix, depth) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.chainMats = w.chainMats[:depth]
		w.cleanMats = w.cleanMats[:depth]
	}
	w.cleanCond = w.cleanCond[:0]
	w.cleanScale = w.cleanScale[:0]
	prev = w.parent
	for k, v := range w.path {
		vn := &base.Nodes[v]
		if k > 0 {
			// Both endpoints of the chain edge are untouched by every
			// candidate, so the matrix is round-invariant. (The k = 0
			// edge length depends on the candidate's parent age.)
			e.model.TransitionInto(vn.Age-base.Nodes[prev].Age, &w.chainMats[k])
		}
		clean := w.cleanCh[k]
		e.model.TransitionInto(vn.Age-base.Nodes[clean].Age, &w.cleanMats[k])
		cc, cs := w.rowOf(clean)
		w.cleanCond = append(w.cleanCond, cc)
		w.cleanScale = append(w.cleanScale, cs)
		prev = v
	}

	// Lift lanes: one clean-side dot product per path node, state and
	// pattern — shared by every candidate of the round.
	nPat := e.nPatterns
	if need := depth * nStates * nPat; cap(w.outer) < need {
		w.outer = make([]float64, need) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.outer = w.outer[:depth*nStates*nPat]
	}
	if depth > 0 {
		bs := e.blockSize
		nBlocks := (nPat + bs - 1) / bs
		// Cells write disjoint lanes and there is no reduction, so the
		// schedule cannot affect results; the gate is execution-only,
		// like evalDelta's.
		if e.launchWorth(nBlocks, depth) {
			e.dev.LaunchAffine(nBlocks, w.liftKernel)
		} else {
			for b := 0; b < nBlocks; b++ {
				w.runLiftBlock(b)
			}
		}
	}
	w.bound = true
}

// runLiftBlock fills one pattern block of every path node's outer lanes:
// outer_k[x] = cleanMats[k][x]·cond_clean per pattern, with the same fused
// left-to-right dot product runBlock evaluates — the lift must produce the
// exact bits the per-candidate kernel would.
//
//mpcgs:hotpath
func (w *Wave) runLiftBlock(b int) {
	e := w.e
	nPat := e.nPatterns
	lo := b * e.blockSize
	hi := lo + e.blockSize
	if hi > nPat {
		hi = nPat
	}
	for k := range w.path {
		base := k * nStates * nPat
		clean := rowView{cond: w.cleanCond[k][lo:], stride: nPat}
		outer := rowView{cond: w.outer[base+lo:], stride: nPat}
		evalLift(clean, outer, &w.cleanMats[k], hi-lo)
	}
}

// InKernel reports whether one candidate of the bound round is too small
// to split over pattern blocks: the delta evaluator's block-split test on
// the candidate's 2 + depth dirty rows (target, parent, root path). Then
// each proposal thread should evaluate its own candidate with EvalOne and
// the round needs no grid launch; otherwise Eval's grid spreads the
// candidates' blocks over the device. Both give the same bits.
func (w *Wave) InKernel() bool {
	if !w.bound {
		panic("felsen: Wave.InKernel without BindRound")
	}
	e := w.e
	nBlocks := (e.nPatterns + e.blockSize - 1) / e.blockSize
	return !e.launchWorth(nBlocks, 2+len(w.path))
}

// prepare resolves candidate t's proposal-specific state against the
// bound round: its five edge matrices and the clean rows its cells
// stream — the target's two children and the parent's clean child — so
// the cell kernel never branches on tip-ness. Eval and EvalOne both set a
// candidate up through it.
//
//mpcgs:hotpath
func (w *Wave) prepare(pr *waveProp, t *gtree.Tree) {
	e := w.e
	tn := &t.Nodes[w.phi]
	e.model.TransitionInto(tn.Age-t.Nodes[tn.Child[0]].Age, &pr.tm0)
	e.model.TransitionInto(tn.Age-t.Nodes[tn.Child[1]].Age, &pr.tm1)
	pn := &t.Nodes[w.parent]
	pr.pclean = pn.Child[0]
	if pr.pclean == w.phi {
		pr.pclean = pn.Child[1]
	}
	e.model.TransitionInto(pn.Age-tn.Age, &pr.pmPhi)
	e.model.TransitionInto(pn.Age-t.Nodes[pr.pclean].Age, &pr.pmClean)
	if !w.rootCase {
		e.model.TransitionInto(w.c.base.Nodes[w.path[0]].Age-pn.Age, &pr.am)
	}
	pr.tlc, pr.tls = w.rowOf(tn.Child[0])
	pr.trc, pr.trs = w.rowOf(tn.Child[1])
	pr.cvc, pr.cvs = w.rowOf(pr.pclean)
}

// Eval computes log P(D|G̃) for every candidate of the bound round as one
// fused (proposal × pattern-block) grid. trees is indexed by output slot:
// a nil entry (the current state's slot, or a candidate whose resimulation
// failed) is skipped and out's entry left untouched; every non-nil tree
// must satisfy the round's validity contract (see the package comment
// above). Results are written to out[slot] and are bit-identical to
// LogLikelihoodDelta on the same trees.
//
//mpcgs:hotpath
func (w *Wave) Eval(trees []*gtree.Tree, out []float64) {
	if !w.bound {
		panic("felsen: Wave.Eval without BindRound")
	}
	e := w.e
	w.props = w.props[:0]
	for slot, t := range trees {
		if t == nil {
			continue
		}
		w.props = append(w.props, waveProp{slot: slot})
		w.prepare(&w.props[len(w.props)-1], t)
	}
	nLive := len(w.props)
	if nLive == 0 {
		return
	}
	nPat := e.nPatterns
	bs := e.blockSize
	nBlocks := (nPat + bs - 1) / bs
	if need := nBlocks * nLive; cap(w.sums) < need {
		w.sums = make([]float64, need) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.sums = w.sums[:nBlocks*nLive]
	}
	// One grid over all cells, block-major (cell = b·nLive + li): an
	// affinity segment covers whole pattern blocks across all proposals,
	// so a worker streams the same cached child rows and outer lanes for
	// every candidate before moving on. Cells write disjoint sums slots
	// and the reduction below is fixed-order, so the schedule never
	// affects results.
	nCells := nBlocks * nLive
	if e.launchWorth(nCells, nLive*(2+len(w.path))) {
		e.dev.LaunchAffine(nCells, w.cellKernel)
	} else {
		for cell := 0; cell < nCells; cell++ {
			w.runCell(cell)
		}
	}
	// Per-proposal fixed-order reduction over its block partials — the
	// same block order the per-candidate path and EvalOne sum, so totals
	// match bit for bit.
	for li := range w.props {
		total := 0.0
		for b := 0; b < nBlocks; b++ {
			total += w.sums[b*nLive+li]
		}
		out[w.props[li].slot] = total
	}
}

// EvalOne computes log P(D|G̃) for one candidate t of the bound round on
// the calling goroutine: t's cell of every pattern block in block order,
// summed in the order Eval's reduction sums them, so the result is Eval's
// (and LogLikelihoodDelta's) bit for bit. t must satisfy the round's
// validity contract. Calls may run concurrently between binds — each
// works in its own pooled scratch and only reads the round state — which
// lets every proposal thread evaluate its own candidate (see InKernel).
//
//mpcgs:hotpath
func (w *Wave) EvalOne(t *gtree.Tree) float64 {
	if !w.bound {
		panic("felsen: Wave.EvalOne without BindRound")
	}
	e := w.e
	ws := e.wavePool.Get().(*waveScratch)
	w.prepare(&ws.prop, t)
	nBlocks := (e.nPatterns + e.blockSize - 1) / e.blockSize
	total := 0.0
	for b := 0; b < nBlocks; b++ {
		total += w.cellSum(&ws.prop, b, ws)
	}
	e.wavePool.Put(ws)
	return total
}

// runCell evaluates one (pattern block, proposal) cell of Eval's grid
// into sums[cell], cell = b·nLive + li.
//
//mpcgs:hotpath
func (w *Wave) runCell(cell int) {
	nLive := len(w.props)
	ws := w.e.wavePool.Get().(*waveScratch)
	w.sums[cell] = w.cellSum(&w.props[cell%nLive], cell/nLive, ws)
	w.e.wavePool.Put(ws)
}

// cellSum evaluates candidate pr over pattern block b in ws's working
// rows: the fused target-and-parent pass, the root-path walk against the
// shared outer lanes, and the block's root-contraction partial, which it
// returns. The per-node arithmetic and operation order replicate runBlock
// exactly (see the bit-identity note in the package comment).
//
//mpcgs:hotpath
func (w *Wave) cellSum(pr *waveProp, b int, ws *waveScratch) float64 {
	e := w.e
	nPat := e.nPatterns
	bs := e.blockSize
	lo := b * bs
	hi := lo + bs
	if hi > nPat {
		hi = nPat
	}
	n := hi - lo
	// The working row: the current node's lanes for this block,
	// overwritten in place as the walk climbs.
	sv := rowView{ws.cond, ws.scale, bs}

	// Neighbourhood: the target row (both children clean), then the
	// parent row from the target and the parent's clean child, into the
	// working row.
	tl := rowAt(pr.tlc, pr.tls, nPat, lo)
	tr := rowAt(pr.trc, pr.trs, nPat, lo)
	cv := rowAt(pr.cvc, pr.cvs, nPat, lo)
	evalNeighbourhood(pr, tl, tr, cv, rowView{ws.tcond, ws.tscale, bs}, sv, n)

	// Root path: one dirty-side dot per node against the shared outer
	// lane, then the same max/rescale/scale sequence as runBlock.
	for k := range w.path {
		m := &pr.am
		if k > 0 {
			m = &w.chainMats[k]
		}
		base := k * nStates * nPat
		evalWalk(sv, rowAt(w.outer[base:], w.cleanScale[k], nPat, lo), m, n)
	}

	// Root contraction with the prior frequencies — the working row now
	// holds the root (the parent itself in the root case).
	return evalRoot(sv, e.patCount[lo:hi], &e.freqs, n)
}

// evalNeighbourhood evaluates the resimulated neighbourhood's two nodes
// over patterns [0, n): the target row from its children l and r (the
// candidate's Child-array order), then the parent row from the target
// and the parent's clean-child row c, into o. Each node's arithmetic is
// runBlock's, with the same matrix↔child pairing; the two dot factors
// and the two scale summands commute bit-exactly, so evaluating the φ
// side first is the per-candidate kernel's result regardless of
// Child-array order. The vector path runs two evalNode passes through
// the target row t (a float64 store is exact); the scalar path fuses
// them and leaves t untouched.
//
//mpcgs:hotpath
func evalNeighbourhood(pr *waveProp, l, r, c, t, o rowView, n int) {
	if kernelTier != tierScalar {
		evalNode(l, r, t, &pr.tm0, &pr.tm1, n)
		evalNode(t, c, o, &pr.pmPhi, &pr.pmClean, n)
		return
	}
	waveNeighbourhood(pr, l, r, c, o, n)
}

// waveNeighbourhood is the scalar path's fused neighbourhood over
// patterns [0, n): the target row — computed from its children l and r
// (the candidate's Child-array order) — is carried per pattern in
// registers straight into the parent's dot products against the
// parent's clean-child row c, and only the parent row is stored, into o.
// Each node's arithmetic is exactly evalNode's (children dots, running
// maximum, rescale test, scale add), with the φ-side factor first at the
// parent.
//
//mpcgs:hotpath
func waveNeighbourhood(pr *waveProp, l, r, c, o rowView, n int) {
	a00, a01, a02, a03 := pr.tm0[0][0], pr.tm0[0][1], pr.tm0[0][2], pr.tm0[0][3]
	a10, a11, a12, a13 := pr.tm0[1][0], pr.tm0[1][1], pr.tm0[1][2], pr.tm0[1][3]
	a20, a21, a22, a23 := pr.tm0[2][0], pr.tm0[2][1], pr.tm0[2][2], pr.tm0[2][3]
	a30, a31, a32, a33 := pr.tm0[3][0], pr.tm0[3][1], pr.tm0[3][2], pr.tm0[3][3]
	b00, b01, b02, b03 := pr.tm1[0][0], pr.tm1[0][1], pr.tm1[0][2], pr.tm1[0][3]
	b10, b11, b12, b13 := pr.tm1[1][0], pr.tm1[1][1], pr.tm1[1][2], pr.tm1[1][3]
	b20, b21, b22, b23 := pr.tm1[2][0], pr.tm1[2][1], pr.tm1[2][2], pr.tm1[2][3]
	b30, b31, b32, b33 := pr.tm1[3][0], pr.tm1[3][1], pr.tm1[3][2], pr.tm1[3][3]
	p00, p01, p02, p03 := pr.pmPhi[0][0], pr.pmPhi[0][1], pr.pmPhi[0][2], pr.pmPhi[0][3]
	p10, p11, p12, p13 := pr.pmPhi[1][0], pr.pmPhi[1][1], pr.pmPhi[1][2], pr.pmPhi[1][3]
	p20, p21, p22, p23 := pr.pmPhi[2][0], pr.pmPhi[2][1], pr.pmPhi[2][2], pr.pmPhi[2][3]
	p30, p31, p32, p33 := pr.pmPhi[3][0], pr.pmPhi[3][1], pr.pmPhi[3][2], pr.pmPhi[3][3]
	q00, q01, q02, q03 := pr.pmClean[0][0], pr.pmClean[0][1], pr.pmClean[0][2], pr.pmClean[0][3]
	q10, q11, q12, q13 := pr.pmClean[1][0], pr.pmClean[1][1], pr.pmClean[1][2], pr.pmClean[1][3]
	q20, q21, q22, q23 := pr.pmClean[2][0], pr.pmClean[2][1], pr.pmClean[2][2], pr.pmClean[2][3]
	q30, q31, q32, q33 := pr.pmClean[3][0], pr.pmClean[3][1], pr.pmClean[3][2], pr.pmClean[3][3]
	o0, o1, o2, o3, os := o.cond[:n], o.cond[o.stride:][:n], o.cond[2*o.stride:][:n], o.cond[3*o.stride:][:n], o.scale[:n]
	l0, l1, l2, l3, ls := l.cond[:n], l.cond[l.stride:][:n], l.cond[2*l.stride:][:n], l.cond[3*l.stride:][:n], l.scale[:n]
	r0, r1, r2, r3, rs := r.cond[:n], r.cond[r.stride:][:n], r.cond[2*r.stride:][:n], r.cond[3*r.stride:][:n], r.scale[:n]
	c0, c1, c2, c3, cs := c.cond[:n], c.cond[c.stride:][:n], c.cond[2*c.stride:][:n], c.cond[3*c.stride:][:n], c.scale[:n]
	for i := range o0 {
		u0, u1, u2, u3 := l0[i], l1[i], l2[i], l3[i]
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		t0 := (a00*u0 + a01*u1 + a02*u2 + a03*u3) * (b00*v0 + b01*v1 + b02*v2 + b03*v3)
		t1 := (a10*u0 + a11*u1 + a12*u2 + a13*u3) * (b10*v0 + b11*v1 + b12*v2 + b13*v3)
		t2 := (a20*u0 + a21*u1 + a22*u2 + a23*u3) * (b20*v0 + b21*v1 + b22*v2 + b23*v3)
		t3 := (a30*u0 + a31*u1 + a32*u2 + a33*u3) * (b30*v0 + b31*v1 + b32*v2 + b33*v3)
		maxv := 0.0
		if t0 > maxv {
			maxv = t0
		}
		if t1 > maxv {
			maxv = t1
		}
		if t2 > maxv {
			maxv = t2
		}
		if t3 > maxv {
			maxv = t3
		}
		tsc := ls[i] + rs[i]
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			t0 *= inv
			t1 *= inv
			t2 *= inv
			t3 *= inv
			tsc += math.Log(maxv)
		}
		x0, x1, x2, x3 := c0[i], c1[i], c2[i], c3[i]
		w0 := (p00*t0 + p01*t1 + p02*t2 + p03*t3) * (q00*x0 + q01*x1 + q02*x2 + q03*x3)
		w1 := (p10*t0 + p11*t1 + p12*t2 + p13*t3) * (q10*x0 + q11*x1 + q12*x2 + q13*x3)
		w2 := (p20*t0 + p21*t1 + p22*t2 + p23*t3) * (q20*x0 + q21*x1 + q22*x2 + q23*x3)
		w3 := (p30*t0 + p31*t1 + p32*t2 + p33*t3) * (q30*x0 + q31*x1 + q32*x2 + q33*x3)
		maxv = 0.0
		if w0 > maxv {
			maxv = w0
		}
		if w1 > maxv {
			maxv = w1
		}
		if w2 > maxv {
			maxv = w2
		}
		if w3 > maxv {
			maxv = w3
		}
		sc := tsc + cs[i]
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			w0 *= inv
			w1 *= inv
			w2 *= inv
			w3 *= inv
			sc += math.Log(maxv)
		}
		o0[i] = w0
		o1[i] = w1
		o2[i] = w2
		o3[i] = w3
		os[i] = sc
	}
}
