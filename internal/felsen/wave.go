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
// At the avx512 tier a cell is one fused kernel call over its block's
// whole 8-pattern groups, each group's rows kept in registers from the
// target to the root term. A group that may need rescaling (a node with
// no state at or above rescaleThreshold) or whose root likelihood is
// not a normal finite value, and the n%8 tail, take the
// staged fallback: one kernel call per node, then the terms (cellStaged,
// the whole cell at the other tiers). Both write the same terms.
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
// staged path's working row — one node's conditional lanes for one
// pattern block, overwritten in place as the cell walks parent → root
// path — and target row, stored between the target and parent passes,
// and the block's root-contraction terms, which both paths write. prop
// holds EvalOne's candidate setup, so concurrent EvalOne calls share
// nothing writable.
type waveScratch struct {
	cond   []float64 // nStates lanes of laneStride(blockSize) entries each
	scale  []float64 // laneStride(blockSize)
	tcond  []float64 // the target row, laid out like cond
	tscale []float64
	terms  []float64 // blockSize
	prop   waveProp
}

// cellLevel is one root-path level of the bound round as the fused cell
// kernel reads it (kernels_amd64.s, which depends on this field order):
// state lane 0 of the level's outer row and its clean child's scale
// lane, both at pattern 0, and the chain matrix entering the level. The
// level-0 matrix, ancestor→parent, is the candidate's (waveProp.am), so
// level 0 leaves m nil. Every lane covers all nPatterns patterns.
type cellLevel struct {
	outer *float64
	scale *float64
	m     *subst.Matrix
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
	// outer holds the lift lanes, path-node-major: node k's row is
	// rowLanes(outer, nStates, k), state lane x at offset x*stride.
	// cleanCond[k] and cleanScale[k] are cleanCh[k]'s state lanes and
	// rescaling-log lane (cache or tip-table slices), resolved once per
	// round so neither the lift blocks nor the grid cells branch on
	// tip-ness.
	outer      []float64
	cleanCond  [][]float64
	cleanScale [][]float64
	// levels describes the path to the fused cell kernel, built from
	// outer, cleanScale and chainMats (bindLevels); read-only between
	// binds, like every other round field.
	levels []cellLevel
	bound  bool

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
	nTips := len(e.seqs)
	if node < nTips {
		return e.rowLanes(e.tipCond, nStates, node), e.zeroScale
	}
	r := node - nTips
	return e.rowLanes(w.c.cond, nStates, r), e.rowLanes(w.c.scale, 1, r)
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
	if need := depth * nStates * e.stride; cap(w.outer) < need {
		w.outer = alignedLanes(need) //mpcgsvet:ignore-alloc cap-guarded per-round growth, amortized over the run
	} else {
		w.outer = w.outer[:need]
	}
	if depth > 0 {
		bs := e.blockSize
		nBlocks := (e.nPatterns + bs - 1) / bs
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
	w.bindLevels()
	w.bound = true
}

// bindLevels describes the bound path to the fused cell kernel: one
// cellLevel per path node, pointing into outer, cleanScale and
// chainMats.
func (w *Wave) bindLevels() {
	w.levels = w.levels[:0]
	for k := range w.path {
		lv := cellLevel{outer: &w.e.rowLanes(w.outer, nStates, k)[0], scale: &w.cleanScale[k][0]}
		if k > 0 {
			lv.m = &w.chainMats[k]
		}
		w.levels = append(w.levels, lv)
	}
}

// runLiftBlock fills one pattern block of every path node's outer lanes:
// outer_k[x] = cleanMats[k][x]·cond_clean per pattern, with the same fused
// left-to-right dot product runBlock evaluates — the lift must produce the
// exact bits the per-candidate kernel would.
//
//mpcgs:hotpath
func (w *Wave) runLiftBlock(b int) {
	e := w.e
	lo := b * e.blockSize
	hi := min(lo+e.blockSize, e.nPatterns)
	for k := range w.path {
		clean := rowView{cond: w.cleanCond[k][lo:], stride: e.stride}
		outer := rowView{cond: e.rowLanes(w.outer, nStates, k)[lo:], stride: e.stride}
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

// cellSum evaluates candidate pr over pattern block b and returns the
// block's root-contraction partial. The fused cell kernel (cellVec)
// takes whole 8-pattern groups from the leaves to the root in registers
// and stops before a group in which any node may need rescaling or the
// root likelihood is not a normal finite value. cellStaged evaluates that
// group, after which the fused kernel resumes, and the n%8 tail, or the
// whole block at a tier without the fused kernel. Both write each
// pattern's term to ws.terms, and one loop adds the terms in pattern
// order from +0: runBlock's sum, bit for bit.
//
//mpcgs:hotpath
func (w *Wave) cellSum(pr *waveProp, b int, ws *waveScratch) float64 {
	e := w.e
	lo := b * e.blockSize
	hi := min(lo+e.blockSize, e.nPatterns)
	t := ws.terms[:hi-lo]
	for i := lo; i < hi; {
		i += w.cellVec(pr, i, hi, t[i-lo:])
		j := hi
		if kernelTier == tierAVX512 && hi-i >= 8 {
			j = i + 8 // the group the fused kernel stopped before
		}
		if i < j {
			w.cellStaged(pr, i, j, ws, t[i-lo:j-lo])
		}
		i = j
	}
	sum := 0.0
	for _, x := range t {
		sum += x
	}
	return sum
}

// cellStaged writes candidate pr's root-contraction terms of patterns
// [lo, hi) to t, one node pass at a time in ws's working rows: the
// neighbourhood's target and parent rows, the root-path walk against the
// shared outer lanes, then the terms. The per-node arithmetic and
// operation order replicate runBlock exactly (see the bit-identity note
// in the package comment).
//
//mpcgs:hotpath
func (w *Wave) cellStaged(pr *waveProp, lo, hi int, ws *waveScratch, t []float64) {
	e := w.e
	n := hi - lo
	// The working row: the current node's lanes for this range,
	// overwritten in place as the walk climbs.
	st := laneStride(e.blockSize)
	sv := rowView{ws.cond, ws.scale, st}
	tl := e.rowAt(pr.tlc, pr.tls, lo)
	tr := e.rowAt(pr.trc, pr.trs, lo)
	cv := e.rowAt(pr.cvc, pr.cvs, lo)
	evalNeighbourhood(pr, tl, tr, cv, rowView{ws.tcond, ws.tscale, st}, sv, n)
	for k := range w.path {
		m := &pr.am
		if k > 0 {
			m = &w.chainMats[k]
		}
		evalWalk(sv, e.rowAt(e.rowLanes(w.outer, nStates, k), w.cleanScale[k], lo), m, n)
	}
	// The working row now holds the root (the parent itself in the root
	// case).
	rootTerms(sv, e.patCount[lo:hi], &e.freqs, 0, n, t)
}

// evalNeighbourhood evaluates the resimulated neighbourhood's two nodes
// over patterns [0, n): the target row from its children l and r (the
// candidate's Child-array order) into t, then the parent row from t and
// the parent's clean-child row c into o. Each node's arithmetic is
// runBlock's, with the same matrix↔child pairing; the two dot factors
// and the two scale summands commute bit-exactly, so evaluating the φ
// side first is the per-candidate kernel's result regardless of
// Child-array order.
//
//mpcgs:hotpath
func evalNeighbourhood(pr *waveProp, l, r, c, t, o rowView, n int) {
	evalNode(l, r, t, &pr.tm0, &pr.tm1, n)
	evalNode(t, c, o, &pr.pmPhi, &pr.pmClean, n)
}
