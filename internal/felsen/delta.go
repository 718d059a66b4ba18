package felsen

// Incremental (delta) likelihood evaluation over site patterns.
//
// The proposal kernel of the sampler only rewrites the resimulated
// neighbourhood of the current genealogy (paper §4.2-4.3): two interior
// node slots change, everything else keeps its topology, ages and hence
// per-site conditional likelihoods. On the paper's hardware those
// conditionals live in device memory between rounds; here a DeltaCache
// plays that role. A delta evaluation recomputes only the nodes whose
// subtree differs from the cached base — the changed neighbourhood and its
// ancestors up to the root — and reads every other conditional from the
// cache. A proposal edit's dirty set is a chain: its lowest node reads two
// clean children and every node above reads the one below plus a clean
// child. At the AVX-512 tier a chain runs as one fused kernel per pattern
// block (see runBlock), each 8-pattern group's rows climbing to the root
// in registers, stored as they are computed so a staged evaluation still
// commits them by copying.
//
// Two further device-side compressions apply, mirroring the paper's use of
// constant memory for the immutable sequence data (§4.4):
//
//   - Alignment columns are deduplicated into weighted site patterns once
//     per evaluator; conditionals are computed per pattern and the per-
//     pattern log-likelihoods enter the total with their multiplicities.
//     This is an exact transformation of the sum over sites.
//   - Tip conditionals never enter the cache: they are immutable for the
//     evaluator's lifetime, so they live once in a shared per-tip pattern
//     table (Evaluator.tipCond) and the cache holds interior nodes only.
//
// # Lane layout
//
// All conditional storage — the cache, the tip table and the scratch — is
// structure-of-arrays: a node's conditionals are four contiguous
// per-state float64 lanes of one value per pattern, followed (in a
// separate array) by one scale lane carrying the accumulated rescaling
// logs. This is the memory-coalescing layout the paper arranges for its
// device buffers: the kernel streams each lane sequentially, every load
// and store is dense, and the inner loop indexes equal-length lanes by
// one induction variable so the compiler drops the bounds checks
// (verified with -gcflags=-d=ssa/check_bce). Node rows are node-major:
// interior node i's lanes start at (i-nTips)·4·stride in the cond array
// and (i-nTips)·stride in the scale array, where the lane stride is
// nPatterns rounded up to a multiple of eight and every block of rows
// starts on a cache line (see the lane layout in kernels.go).
//
// # Pattern blocks
//
// The pattern axis is partitioned into fixed-width blocks (BlockSize
// patterns each). Patterns are mutually independent, so one evaluation's
// blocks can run concurrently: each block sweeps all dirty nodes
// bottom-up for its pattern range — a chain as one fused kernel call
// over the block's 8-pattern groups, anything else, and a group that
// may need rescaling, node by node — writes each pattern's root
// contraction term, and adds its terms in pattern order from +0 into
// its partial sum; evalDelta adds the per-block partials in block
// order. Every node's rows and every term have the same bits on either
// path, so the sums never depend on which path ran. Block boundaries
// are a pure function of (nPatterns, BlockSize) — never of worker count
// or schedule — and the reduction order is fixed, so results are
// bit-for-bit reproducible across runs, across serial and parallel
// devices, and across kill/resume. Large evaluations spread their
// blocks over the device pool with affinity (device.LaunchAffine), the
// two-level proposals × blocks parallelism; small ones run inline, where
// blocked and unblocked summation coincide whenever nPatterns <=
// BlockSize.
//
// Within every recomputed node the arithmetic is identical to the full
// serial evaluation; only the summation over sites is reassociated (by
// pattern, then by block), so delta results agree with
// LogLikelihoodSerial to floating-point roundoff rather than bit-for-bit.
// All members of one proposal set are evaluated through the same path, so
// their weights stay exactly comparable.

import (
	"mpcgs/internal/gtree"
	"mpcgs/internal/subst"
)

// nStates is the nucleotide alphabet size: the number of per-state lanes
// in every conditional row.
const nStates = 4

// DefaultBlockSize is the default pattern-block width: 128 patterns make
// a 1 KiB lane, so one node's row (four state lanes plus the scale lane)
// plus its two children's rows stay within a typical L1 data cache while
// a block streams them.
const DefaultBlockSize = 128

// blockParallelMinWork is the evaluation size — dirty-node rows times
// patterns — below which the blocks run inline on the caller: spreading a
// small neighbourhood recomputation over the pool costs more in launch
// traffic than it recovers. The threshold gates execution only; block
// boundaries and hence results are unaffected.
const blockParallelMinWork = 1 << 13

// launchWorth reports whether an evaluation of rows conditional rows over
// every pattern, cut into cells independent launch units, is worth a
// device launch rather than an inline loop: more than one cell, more than
// one worker, and at least blockParallelMinWork rows·patterns. Every
// block-parallel choice in this package makes this one test.
func (e *Evaluator) launchWorth(cells, rows int) bool {
	return cells > 1 && e.dev.Workers() > 1 && rows*e.nPatterns >= blockParallelMinWork
}

// DeltaCache holds the per-pattern conditional likelihoods of every
// interior node of one base genealogy, plus the base tree itself for
// diffing. It is created by NewDeltaCache, filled by Rebase or RebaseTo,
// and read concurrently by any number of LogLikelihoodDelta calls.
type DeltaCache struct {
	base *gtree.Tree
	// cond is node-major SoA: interior node row k = node-nTips is
	// rowLanes(cond, nStates, k), state lane x of that row at offset
	// x*stride.
	cond []float64
	// scale holds the rows' rescaling-log lanes: row k at
	// rowLanes(scale, 1, k).
	scale  []float64
	logLik float64
	valid  bool
}

// deltaScratch is the pooled working memory of one delta evaluation: the
// dirty marking, the changed nodes in bottom-up order, fresh transition
// matrices for changed edges, the recomputed lanes, and the per-block
// partial sums. The block kernel closure is built once per scratch and
// rebound to the evaluation at hand through the scratch's fields, so
// launching blocks allocates nothing per evaluation.
type deltaScratch struct {
	dirty []bool
	order []int
	pos   []int          // node -> index into order, valid for dirty nodes
	mats  []subst.Matrix // indexed by child node, like scratch.mats
	// cond/scale hold the recomputed rows of evaluations that do not
	// write through to the cache, laid out exactly like the cache's rows
	// but indexed by pos[node] instead of node-nTips. Grown on demand and
	// reused; a staged commit copies these rows into the cache verbatim.
	cond  []float64
	scale []float64
	// sums collects the per-block root-contraction partials, combined in
	// block order — the fixed-order reduction that keeps blocked results
	// deterministic. terms holds every pattern's root-contraction term,
	// each block writing its own pattern range before summing it.
	sums  []float64
	terms []float64
	// rows holds the evaluation's resolved lane sources, indexed like
	// order: each dirty node's child rows (tip table, staged scratch or
	// cache), output row and child matrices, bound once by bindRows so the
	// block kernel selects tip cells by plain slice indexing instead of
	// re-branching per node per block. rootCond/rootScale are the root
	// row's lanes for the contraction.
	rows      []rowRef
	rootCond  []float64
	rootScale []float64
	// chain reports that the dirty rows form a chain: the lowest reads
	// two clean children and every row above reads the row below, bound
	// as its left child, plus one clean child. The fused chain kernel
	// runs only then (see runBlock).
	chain bool

	// Per-evaluation kernel bindings, set by evalDelta before the blocks
	// run and cleared after.
	e         *Evaluator
	c         *DeltaCache
	t         *gtree.Tree
	writeBack bool
	kernel    func(b int)
}

// rowRef is one dirty node's pre-resolved evaluation inputs: full-length
// lane slices (sliced to the block's pattern range inside the kernel)
// and the two child transition matrices. Resolving these once per
// evaluation removes the only data-dependent branches — tip table vs
// scratch vs cache — from the block kernel's node loop. The fused chain
// kernel reads ds.rows as they are (kernels_amd64.s, which depends on
// this field order; kernels_amd64.go guards the offsets).
type rowRef struct {
	lc, ls []float64 // left child's state lanes and scale lane
	rc, rs []float64 // right child's state lanes and scale lane
	oc, os []float64 // output row's state lanes and scale lane
	m0, m1 *subst.Matrix
}

// NewDeltaCache allocates an empty cache sized for the evaluator's
// pattern-compressed alignment. The cache is invalid until the first
// Rebase.
func (e *Evaluator) NewDeltaCache() *DeltaCache {
	nInt := len(e.seqs) - 1
	return &DeltaCache{
		cond:  alignedLanes(nInt * nStates * e.stride),
		scale: alignedLanes(nInt * e.stride),
	}
}

// CopyFrom makes c an exact copy of src: same base tree, conditionals and
// log-likelihood. Both caches must belong to the same evaluator. It backs
// ladder construction, where every chain starts at one tree and a single
// evaluation is replicated instead of repeated per rung.
func (c *DeltaCache) CopyFrom(src *DeltaCache) {
	if !src.valid {
		c.valid = false
		return
	}
	if c.base == nil {
		c.base = src.base.Clone()
	} else {
		c.base.CopyFrom(src.base)
	}
	copy(c.cond, src.cond)
	copy(c.scale, src.scale)
	c.logLik = src.logLik
	c.valid = true
}

// Rebase fully evaluates t over the site patterns, stores every interior
// node's conditionals in the cache, records t as the cache's base, and
// returns log P(D|G). It runs the delta kernel with every interior node
// marked dirty, so full and incremental evaluations are one code path.
func (e *Evaluator) Rebase(c *DeltaCache, t *gtree.Tree) float64 {
	ds := e.deltaPool.Get().(*deltaScratch)
	defer e.deltaPool.Put(ds)
	ds.order = ds.order[:0]
	for i := range ds.dirty {
		tip := i < t.NTips()
		ds.dirty[i] = !tip
		if !tip {
			ds.order = append(ds.order, i)
		}
	}
	sortByAge(t, ds.order)
	total := e.evalDelta(c, t, ds, true)
	if c.base == nil {
		c.base = t.Clone()
	} else {
		c.base.CopyFrom(t)
	}
	c.logLik = total
	c.valid = true
	return total
}

// LogLikelihoodDelta returns log P(D|G) for a tree differing from the
// cache's base in a localized edit, recomputing only the changed nodes and
// their ancestors. It is safe to call concurrently against one cache (the
// cache is only read). It agrees with LogLikelihoodSerial(t) to floating-
// point roundoff; the speedup over it grows with the fraction of the tree
// left untouched by the edit.
//
//mpcgs:hotpath
func (e *Evaluator) LogLikelihoodDelta(c *DeltaCache, t *gtree.Tree) float64 {
	if !c.valid {
		panic("felsen: LogLikelihoodDelta on cache with no base; call Rebase first")
	}
	ds := e.deltaPool.Get().(*deltaScratch)
	defer e.deltaPool.Put(ds)
	e.diffDirty(c.base, t, ds)
	if len(ds.order) == 0 {
		return c.logLik
	}
	return e.evalDelta(c, t, ds, false)
}

// RebaseTo incrementally moves the cache onto t: the changed nodes are
// recomputed with their new conditionals written into the cache in place,
// and t becomes the new base. It must not run concurrently with delta
// evaluations on the same cache. Returns log P(D|G) for t.
//
//mpcgs:hotpath
func (e *Evaluator) RebaseTo(c *DeltaCache, t *gtree.Tree) float64 {
	if !c.valid {
		return e.Rebase(c, t)
	}
	ds := e.deltaPool.Get().(*deltaScratch)
	defer e.deltaPool.Put(ds)
	e.diffDirty(c.base, t, ds)
	if len(ds.order) == 0 {
		return c.logLik
	}
	total := e.evalDelta(c, t, ds, true)
	c.base.CopyFrom(t)
	c.logLik = total
	return total
}

// DeltaEval is one staged incremental evaluation: the proposal's
// log-likelihood plus the recomputed conditionals, held aside so the
// caller can decide the move first and then settle the cache for free in
// either direction — Commit writes the staged rows in (accept) and
// Discard drops them (reject), neither re-evaluating anything. It is a
// value type: keep it in a reusable field and exactly one of Commit or
// Discard must be called before the next StageDelta against the same
// cache. Staged evaluations hold pooled scratch, so they must not be kept
// across unrelated evaluator calls.
type DeltaEval struct {
	e      *Evaluator
	c      *DeltaCache
	t      *gtree.Tree
	ds     *deltaScratch // nil when nothing differed from the base
	logLik float64
}

// StageDelta evaluates t against the cache like LogLikelihoodDelta but
// keeps the recomputed conditionals staged for a later Commit. Staging
// only reads the cache, so any number of StageDelta/LogLikelihoodDelta
// calls may run concurrently against one cache — the multiple-proposal
// kernel stages its whole set in parallel. Commit, like RebaseTo, must be
// exclusive: resolve every staged evaluation before the next round reads
// the cache.
//
//mpcgs:hotpath
func (e *Evaluator) StageDelta(c *DeltaCache, t *gtree.Tree) DeltaEval {
	if !c.valid {
		panic("felsen: StageDelta on cache with no base; call Rebase first")
	}
	ds := e.deltaPool.Get().(*deltaScratch)
	e.diffDirty(c.base, t, ds)
	if len(ds.order) == 0 {
		e.deltaPool.Put(ds)
		return DeltaEval{e: e, c: c, t: t, logLik: c.logLik}
	}
	total := e.evalDelta(c, t, ds, false)
	return DeltaEval{e: e, c: c, t: t, ds: ds, logLik: total}
}

// LogLik returns the staged evaluation's log P(D|G).
func (d *DeltaEval) LogLik() float64 { return d.logLik }

// Commit writes the staged conditionals into the cache and makes the
// evaluated tree the cache's new base: the accept path of a chain step,
// costing one lane copy per recomputed node instead of a re-evaluation
// (RebaseTo's price). The evaluated tree must not have been mutated since
// StageDelta.
//
//mpcgs:hotpath
func (d *DeltaEval) Commit() {
	ds := d.ds
	if ds == nil {
		return // nothing differed from the base
	}
	e := d.e
	nTips := d.t.NTips()
	for k, node := range ds.order {
		r := node - nTips
		copy(e.rowLanes(d.c.cond, nStates, r), e.rowLanes(ds.cond, nStates, k))
		copy(e.rowLanes(d.c.scale, 1, r), e.rowLanes(ds.scale, 1, k))
	}
	d.c.base.CopyFrom(d.t)
	d.c.logLik = d.logLik
	d.e.deltaPool.Put(ds)
	d.ds = nil
}

// Discard releases the staged evaluation without touching the cache: the
// reject path of a chain step. Rejection costs nothing — the cache never
// saw the proposal.
//
//mpcgs:hotpath
func (d *DeltaEval) Discard() {
	if d.ds != nil {
		d.e.deltaPool.Put(d.ds)
		d.ds = nil
	}
}

// diffDirty marks every node of t whose conditional likelihoods differ
// from the cached base: interior nodes whose age or (unordered) child set
// changed, plus all their ancestors in t. ds.order receives the marked
// nodes sorted by age ascending — a valid bottom-up evaluation order,
// since every node is strictly older than its children.
func (e *Evaluator) diffDirty(base, t *gtree.Tree, ds *deltaScratch) {
	for i := range ds.dirty {
		ds.dirty[i] = false
	}
	ds.order = ds.order[:0]
	for i := t.NTips(); i < len(t.Nodes); i++ {
		tn, bn := &t.Nodes[i], &base.Nodes[i]
		same := tn.Age == bn.Age &&
			((tn.Child[0] == bn.Child[0] && tn.Child[1] == bn.Child[1]) ||
				(tn.Child[0] == bn.Child[1] && tn.Child[1] == bn.Child[0]))
		if !same {
			for j := i; j != gtree.Nil && !ds.dirty[j]; j = t.Nodes[j].Parent {
				ds.dirty[j] = true
				ds.order = append(ds.order, j)
			}
		}
	}
	sortByAge(t, ds.order)
}

// sortByAge insertion-sorts node indices by age ascending — a valid
// bottom-up evaluation order, since every node is strictly older than its
// children. The lists are short (an edit neighbourhood plus root paths,
// or the interior nodes of a small tree).
func sortByAge(t *gtree.Tree, order []int) {
	for k := 1; k < len(order); k++ {
		x := order[k]
		ax := t.Nodes[x].Age
		j := k - 1
		for j >= 0 && t.Nodes[order[j]].Age > ax {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
}

// evalDelta recomputes the dirty nodes' pattern lanes bottom-up, reading
// clean conditionals from the cache and tip conditionals from the shared
// tip table. With writeBack the recomputed lanes go straight into the
// cache (safe because children are processed before parents); otherwise
// they go into the scratch lanes, from where a DeltaEval can commit them
// later without re-evaluating. The pattern axis is swept in fixed blocks
// (see runBlock); large evaluations spread the blocks over the device
// pool with worker affinity, and the per-block partial sums always
// combine in block order, so the result never depends on the schedule.
//
//mpcgs:hotpath
func (e *Evaluator) evalDelta(c *DeltaCache, t *gtree.Tree, ds *deltaScratch, writeBack bool) float64 {
	// Fresh transition matrices for every edge below a changed node: these
	// are the only edges whose lengths can differ from the base (an edge
	// below an untouched node has untouched endpoints), and the only ones
	// the recomputation reads. This is the batched per-proposal matrix
	// preparation: 2·|dirty| matrices instead of one per node.
	for _, node := range ds.order {
		nd := &t.Nodes[node]
		for _, ch := range nd.Child {
			e.model.TransitionInto(nd.Age-t.Nodes[ch].Age, &ds.mats[ch])
		}
	}
	if !writeBack {
		rows := len(ds.order)
		if need := rows * nStates * e.stride; cap(ds.cond) < need {
			ds.cond = alignedLanes(need)             //mpcgsvet:ignore-alloc cap-guarded pooled-scratch growth, amortized across proposals
			ds.scale = alignedLanes(rows * e.stride) //mpcgsvet:ignore-alloc cap-guarded pooled-scratch growth, amortized across proposals
		} else {
			ds.cond = ds.cond[:need]
			ds.scale = ds.scale[:rows*e.stride]
		}
		for k, node := range ds.order {
			ds.pos[node] = k
		}
	}
	bs := e.blockSize
	nBlocks := (e.nPatterns + bs - 1) / bs
	if cap(ds.sums) < nBlocks {
		ds.sums = make([]float64, nBlocks) //mpcgsvet:ignore-alloc cap-guarded pooled-scratch growth, amortized across proposals
	} else {
		ds.sums = ds.sums[:nBlocks]
	}
	if cap(ds.terms) < e.nPatterns {
		ds.terms = make([]float64, e.nPatterns) //mpcgsvet:ignore-alloc cap-guarded pooled-scratch growth, amortized across proposals
	} else {
		ds.terms = ds.terms[:e.nPatterns]
	}
	ds.e, ds.c, ds.t, ds.writeBack = e, c, t, writeBack
	ds.bindRows(t)
	if e.launchWorth(nBlocks, len(ds.order)+1) {
		// Two-level parallelism: this evaluation's blocks join the device
		// pool alongside any other proposals' blocks. Affinity keeps each
		// block on the worker that streamed it last round.
		e.dev.LaunchAffine(nBlocks, ds.kernel)
	} else {
		for b := 0; b < nBlocks; b++ {
			ds.runBlock(b)
		}
	}
	// Fixed-order reduction over the per-block partials: the only place
	// block results meet, so determinism needs nothing from the scheduler.
	total := 0.0
	for _, s := range ds.sums {
		total += s
	}
	ds.e, ds.c, ds.t = nil, nil, nil
	return total
}

// bindRows resolves every dirty node's lane sources and matrices into
// ds.rows, and the root row for the contraction, once per evaluation —
// before the blocks run, after the scratch lanes are sized (the slices
// must point into the final backing arrays). A dirty child's slice
// header is resolved before its row is computed, which is safe because
// the header aliases the array the child's own rowRef writes through.
// This is the branchless tip-cell selection: the block kernel indexes
// rows[k] instead of re-deciding tip table vs scratch vs cache for
// every node in every block.
//
// It also detects a chain (ds.chain): every row above the lowest reads
// the row just below plus one clean child. A row whose right child is
// the row below has its children and matrices swapped, so the dirty
// child is always on the left, where the fused chain kernel keeps it in
// registers. The swap changes no bit: the node step's two dot products
// multiply, and its two scale lanes add, commutatively. Every proposal
// edit's dirty set is a chain (the edited nodes and their ancestors); a
// Rebase, or an edit of two separate subtrees, is not.
func (ds *deltaScratch) bindRows(t *gtree.Tree) {
	nTips := t.NTips()
	if cap(ds.rows) < len(ds.order) {
		ds.rows = make([]rowRef, len(ds.order)) //mpcgsvet:ignore-alloc cap-guarded pooled-scratch growth, amortized across proposals
	} else {
		ds.rows = ds.rows[:len(ds.order)]
	}
	ds.chain = true
	for k, node := range ds.order {
		nd := &t.Nodes[node]
		c0, c1 := nd.Child[0], nd.Child[1]
		if k > 0 && c1 == ds.order[k-1] {
			c0, c1 = c1, c0
		}
		ds.chain = ds.chain && (k == 0 || c0 == ds.order[k-1]) && !ds.dirty[c1]
		rr := &ds.rows[k]
		rr.lc, rr.ls = ds.row(nTips, c0)
		rr.rc, rr.rs = ds.row(nTips, c1)
		rr.oc, rr.os = ds.outRow(nTips, node)
		rr.m0, rr.m1 = &ds.mats[c0], &ds.mats[c1]
	}
	ds.rootCond, ds.rootScale = ds.row(nTips, t.Root)
}

// row returns a node's conditional lanes for reading: the shared tip
// table for tips (their scale lane is the shared all-zero lane), the
// staged scratch lanes for already-recomputed dirty nodes of a
// non-write-back evaluation, and the cache otherwise. cond is the node's
// four contiguous state lanes (lane x at offset x·stride), scale its
// rescaling-log lane. It is the resolution half of bindRows: called once
// per node per evaluation, never from the block kernel.
func (ds *deltaScratch) row(nTips, node int) (cond, scale []float64) {
	e := ds.e
	switch {
	case node < nTips:
		return e.rowLanes(e.tipCond, nStates, node), e.zeroScale
	case ds.dirty[node] && !ds.writeBack:
		k := ds.pos[node]
		return e.rowLanes(ds.cond, nStates, k), e.rowLanes(ds.scale, 1, k)
	default:
		r := node - nTips
		return e.rowLanes(ds.c.cond, nStates, r), e.rowLanes(ds.c.scale, 1, r)
	}
}

// outRow returns the lanes a dirty node's recomputation writes: the cache
// row itself for write-back evaluations, the staged scratch row otherwise.
func (ds *deltaScratch) outRow(nTips, node int) (cond, scale []float64) {
	e := ds.e
	if ds.writeBack {
		r := node - nTips
		return e.rowLanes(ds.c.cond, nStates, r), e.rowLanes(ds.c.scale, 1, r)
	}
	k := ds.pos[node]
	return e.rowLanes(ds.cond, nStates, k), e.rowLanes(ds.scale, 1, k)
}

// runBlock evaluates one pattern block: every dirty node's lanes for the
// block's pattern range, bottom-up, then the block's root-contraction
// partial sum into ds.sums[b]. Blocks touch disjoint pattern ranges of
// the same rows, so any number of one evaluation's blocks may run
// concurrently on the pool. When the dirty rows form a chain the fused
// kernel (chainVec, AVX512 only) takes the block's 8-pattern groups and
// its n%8 tail, each from the lowest row to the root term in registers,
// storing every row; it stops before a group in which a row may need
// rescaling or the root likelihood is not a normal finite value. The
// per-node path (evalRange) evaluates that group, after which the fused
// kernel resumes, or the whole block when the rows do not form a chain,
// the block is shorter than a group, or at another tier. Both write each
// pattern's term to ds.terms, and one loop adds the block's terms in
// pattern order from +0, so the sum never depends on which path wrote a
// term.
//
//mpcgs:hotpath
func (ds *deltaScratch) runBlock(b int) {
	e := ds.e
	lo := b * e.blockSize
	hi := min(lo+e.blockSize, e.nPatterns)
	t := ds.terms[lo:hi]
	for i := lo; i < hi; {
		i += ds.chainVec(i, hi, t[i-lo:])
		j := hi
		if ds.chain && kernelTier == tierAVX512 && hi-i >= 8 {
			j = i + 8 // the group the fused kernel stopped before
		}
		if i < j {
			ds.evalRange(i, j, t[i-lo:j-lo])
		}
		i = j
	}
	sum := 0.0
	for _, x := range t {
		sum += x
	}
	ds.sums[b] = sum
}

// evalRange is the per-node path over patterns [lo, hi): every dirty
// row in ds.rows order, one evalNode pass each (kernels.go: both
// children's dot products, the running maximum, the rare rescale and the
// scale lane, with siteLogLikelihoodIter's per-pattern arithmetic and
// operation order), then the root's terms into t. The node loop is
// branchless on lane sources: every row — tip table, staged scratch or
// cache — was resolved into ds.rows by bindRows. The root is always
// dirty here: diffDirty marks every changed node's full ancestor path.
//
//mpcgs:hotpath
func (ds *deltaScratch) evalRange(lo, hi int, t []float64) {
	e := ds.e
	for k := range ds.rows {
		rr := &ds.rows[k]
		evalNode(e.rowAt(rr.lc, rr.ls, lo), e.rowAt(rr.rc, rr.rs, lo), e.rowAt(rr.oc, rr.os, lo), rr.m0, rr.m1, hi-lo)
	}
	// Root contraction with the prior frequencies (Eq. 21).
	rootTerms(e.rowAt(ds.rootCond, ds.rootScale, 0), e.patCount, &e.freqs, lo, hi, t)
}
