// Package felsen computes the data likelihood P(D|G) of a genealogy by
// Felsenstein's pruning algorithm (paper §2.4, Eq. 19-22): a post-order
// traversal propagates per-nucleotide conditional likelihoods from the
// tips to the root independently at every base-pair position, and the
// per-site log-likelihoods add.
//
// The device-parallel path mirrors the paper's data likelihood kernel
// (§5.2.2): one thread per site, each performing the full recursive
// descent, followed by an additive reduction of the per-site logs. The
// serial path is the reference implementation and the baseline sampler's
// evaluator.
package felsen

import (
	"fmt"
	"math"
	"sync"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/logspace"
	"mpcgs/internal/phylip"
	"mpcgs/internal/subst"
)

// rescaleThreshold triggers per-node renormalization of conditional
// likelihoods: once the largest entry falls below it, the vector is scaled
// up and the log-scale accumulated, preventing underflow on deep trees
// (paper §5.3).
const rescaleThreshold = 1e-150

// Evaluator computes log P(D|G) for genealogies over a fixed alignment.
// It is safe for concurrent use: per-call scratch comes from an internal
// pool, so parallel proposal threads can evaluate different trees at once.
type Evaluator struct {
	model     subst.Model
	freqs     [4]float64
	seqs      []*bitseq.Seq
	nSites    int
	dev       *device.Device
	pool      sync.Pool // *scratch
	blockPool sync.Pool // *blockScratch
	deltaPool sync.Pool // *deltaScratch
	wavePool  sync.Pool // *waveScratch

	// Site-pattern compression for the delta path (see delta.go): distinct
	// alignment columns, their multiplicities, and per-tip base codes
	// (0..3, 4 = missing) — the immutable data the paper parks in constant
	// memory (§4.4). tipCond additionally materializes every tip's
	// conditional lanes per pattern in the same SoA row layout as the
	// delta cache (tip i's row is rowLanes(tipCond, nStates, i)),
	// immutable for the evaluator's lifetime, so the delta kernel streams
	// tip conditionals instead of regenerating them. zeroScale is the
	// all-zero rescaling lane every tip row shares.
	nPatterns int
	patCount  []float64
	patBase   [][]uint8
	tipCond   []float64
	zeroScale []float64
	// stride is the lane stride of every node-major row:
	// laneStride(nPatterns), set once by compressPatterns (see the lane
	// layout in kernels.go).
	stride int

	// blockSize is the pattern-block width of the delta kernel (see
	// delta.go). It participates in the floating-point summation order, so
	// it is fixed at construction (DefaultBlockSize) unless overridden by
	// SetBlockSize before any evaluation.
	blockSize int

	// reference marks the LAMARC reference evaluation mode (NewReference).
	reference bool
}

type scratch struct {
	mats  []subst.Matrix // per-node transition matrix, indexed by child node
	order []int          // post-order node visit sequence for the tree under evaluation
}

// blockScratch is the per-block working memory of the iterative site
// kernel: conditional likelihood vectors for every node, reused across
// the sites of the block (the role shared memory plays in the paper's
// kernels).
type blockScratch struct {
	partials [][4]float64
	scale    []float64
}

// New builds an evaluator for the alignment under the given substitution
// model, executing parallel site kernels on dev.
func New(model subst.Model, aln *phylip.Alignment, dev *device.Device) (*Evaluator, error) {
	return newEvaluator(model, aln, dev, false)
}

// NewReference builds an evaluator in the LAMARC reference mode: samplers
// built over it keep no delta cache and evaluate every proposal from
// scratch, exactly what the reference package does. It is the baseline of
// the paper's speedup measurements (§6) and the oracle the delta path's
// equivalence tests compare against. The likelihoods it computes are the
// same as New's; only how samplers use it differs.
func NewReference(model subst.Model, aln *phylip.Alignment, dev *device.Device) (*Evaluator, error) {
	return newEvaluator(model, aln, dev, true)
}

func newEvaluator(model subst.Model, aln *phylip.Alignment, dev *device.Device, reference bool) (*Evaluator, error) {
	if err := aln.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("felsen: nil model")
	}
	if dev == nil {
		dev = device.Serial()
	}
	e := &Evaluator{
		model:     model,
		freqs:     model.Freqs(),
		seqs:      aln.Seqs,
		nSites:    aln.SeqLen(),
		dev:       dev,
		blockSize: DefaultBlockSize,
		reference: reference,
	}
	nNodes := 2*len(aln.Seqs) - 1
	e.pool.New = func() any {
		return &scratch{
			mats:  make([]subst.Matrix, nNodes),
			order: make([]int, 0, nNodes),
		}
	}
	e.blockPool.New = func() any {
		return &blockScratch{
			partials: make([][4]float64, nNodes),
			scale:    make([]float64, nNodes),
		}
	}
	e.deltaPool.New = func() any {
		ds := &deltaScratch{
			dirty: make([]bool, nNodes),
			order: make([]int, 0, nNodes),
			pos:   make([]int, nNodes),
			mats:  make([]subst.Matrix, nNodes),
		}
		// The block kernel closure is built once per pooled scratch (cold
		// path) and rebound per evaluation through the scratch's fields, so
		// launching blocks allocates nothing on the hot path.
		ds.kernel = ds.runBlock
		return ds
	}
	e.wavePool.New = func() any { return e.newWaveScratch() }
	e.compressPatterns()
	return e, nil
}

// newWaveScratch sizes one concurrent wave cell's working memory (see
// waveScratch): a working row and a target row, four state lanes plus
// the scale lane each, and a block of root terms. The pool calls it at
// Get time, so a SetBlockSize before the first evaluation is honored.
func (e *Evaluator) newWaveScratch() *waveScratch {
	st := laneStride(e.blockSize)
	return &waveScratch{
		cond:   alignedLanes(nStates * st),
		scale:  alignedLanes(st),
		tcond:  alignedLanes(nStates * st),
		tscale: alignedLanes(st),
		terms:  make([]float64, e.blockSize),
	}
}

// compressPatterns deduplicates alignment columns into weighted site
// patterns: the delta path evaluates each distinct column once and sums
// the per-pattern log-likelihoods with their multiplicities — an exact
// reassociation of the sum over sites. Patterns are numbered in order of
// first occurrence; the block partition and so the summation order
// depend on it. Each sequence's packed 32-site block is read once and
// spread into the block's 32 column keys.
func (e *Evaluator) compressPatterns() {
	nSeqs := len(e.seqs)
	e.patBase = make([][]uint8, nSeqs)
	for i := range e.patBase {
		e.patBase[i] = make([]uint8, 0, e.nSites)
	}
	index := make(map[string]int, e.nSites)
	keys := make([]byte, bitseq.PerWord*nSeqs) // site j of the block: keys[j*nSeqs:(j+1)*nSeqs]
	for first := 0; first < e.nSites; first += bitseq.PerWord {
		for i, sq := range e.seqs {
			codes, unknown := sq.Block(first / bitseq.PerWord)
			for j := i; j < len(keys); j += nSeqs {
				keys[j] = uint8(codes & 3)
				if unknown&1 != 0 {
					keys[j] = 4
				}
				codes >>= 2
				unknown >>= 1
			}
		}
		for j := 0; j < min(bitseq.PerWord, e.nSites-first); j++ {
			key := keys[j*nSeqs : (j+1)*nSeqs]
			if pat, ok := index[string(key)]; ok {
				e.patCount[pat]++
				continue
			}
			index[string(key)] = e.nPatterns
			e.nPatterns++
			e.patCount = append(e.patCount, 1)
			for i := range e.patBase {
				e.patBase[i] = append(e.patBase[i], key[i])
			}
		}
	}
	e.stride = laneStride(e.nPatterns)
	e.tipCond = alignedLanes(nSeqs * nStates * e.stride)
	e.zeroScale = alignedLanes(e.stride)
	for i := range e.patBase {
		row := e.rowLanes(e.tipCond, nStates, i)
		for pat, code := range e.patBase[i] {
			if code < 4 {
				row[int(code)*e.stride+pat] = 1
			} else {
				for x := 0; x < nStates; x++ {
					row[x*e.stride+pat] = 1
				}
			}
		}
	}
}

// rowLanes returns row r of a block of node-major rows of n lanes each
// (nStates state lanes, or one scale lane) at the evaluator's lane
// stride: the one place a row's bounds are computed.
func (e *Evaluator) rowLanes(block []float64, n, r int) []float64 {
	w := n * e.stride
	return block[r*w : (r+1)*w]
}

// rowAt views a full node-major row from pattern lo on.
func (e *Evaluator) rowAt(cond, scale []float64, lo int) rowView {
	return rowView{cond[lo:], scale[lo:], e.stride}
}

// NPatterns returns the number of distinct site patterns the alignment
// compresses to: the length of every conditional lane in the delta path.
func (e *Evaluator) NPatterns() int { return e.nPatterns }

// SetBlockSize overrides the delta kernel's pattern-block width
// (DefaultBlockSize). The block partition fixes the floating-point
// summation order of the per-pattern log-likelihoods, so two evaluators
// agree bit-for-bit exactly when their block sizes match: call this only
// before the first evaluation, with the same value on every run that must
// reproduce (checkpoint/resume included). Results for any block size
// agree to floating-point roundoff.
func (e *Evaluator) SetBlockSize(n int) {
	if n <= 0 {
		panic("felsen: SetBlockSize requires a positive block size")
	}
	e.blockSize = n
}

// Reference reports whether the evaluator was built by NewReference.
func (e *Evaluator) Reference() bool { return e.reference }

// Model returns the substitution model in use.
func (e *Evaluator) Model() subst.Model { return e.model }

// CheckTree verifies that a genealogy is structurally compatible with the
// alignment (tip count matches; tip i carries sequence i).
func (e *Evaluator) CheckTree(t *gtree.Tree) error {
	if t.NTips() != len(e.seqs) {
		return fmt.Errorf("felsen: tree has %d tips, alignment has %d sequences", t.NTips(), len(e.seqs))
	}
	return t.Validate()
}

// prepare fills per-node transition matrices and the post-order visit
// sequence for the tree. Both depend only on tree shape and branch
// lengths, so they are computed once per evaluation and shared by every
// site thread.
func (e *Evaluator) prepare(t *gtree.Tree, s *scratch) {
	for i := range t.Nodes {
		if i == t.Root {
			continue
		}
		e.model.TransitionInto(t.BranchLength(i), &s.mats[i])
	}
	s.order = s.order[:0]
	t.PostOrder(func(i int) { s.order = append(s.order, i) })
}

// LogLikelihood returns log P(D|G) with sites evaluated in parallel on the
// device and combined by an additive reduction, the structure of the
// paper's data likelihood kernel. Sites are processed in per-worker
// blocks so the conditional-likelihood buffers are allocated once per
// block rather than once per site.
func (e *Evaluator) LogLikelihood(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	siteLogs := make([]float64, e.nSites)
	e.dev.LaunchBlocks(e.nSites, func(lo, hi int) {
		b := e.blockPool.Get().(*blockScratch)
		defer e.blockPool.Put(b)
		for site := lo; site < hi; site++ {
			siteLogs[site] = e.siteLogLikelihoodIter(t, s, b, site)
		}
	})
	return e.dev.ReduceSum(siteLogs)
}

// LogLikelihoodSerial returns log P(D|G) on the calling goroutine with no
// device parallelism: the evaluator used by the serial baseline sampler.
func (e *Evaluator) LogLikelihoodSerial(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	b := e.blockPool.Get().(*blockScratch)
	defer e.blockPool.Put(b)
	total := 0.0
	for site := 0; site < e.nSites; site++ {
		total += e.siteLogLikelihoodIter(t, s, b, site)
	}
	return total
}

// LogLikelihoodRecursive returns log P(D|G) using the straightforward
// recursive-descent site kernel (the paper's formulation, §5.2.2). It is
// the reference the iterative kernel is validated against.
func (e *Evaluator) LogLikelihoodRecursive(t *gtree.Tree) float64 {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	total := 0.0
	for site := 0; site < e.nSites; site++ {
		total += e.siteLogLikelihood(t, s, site)
	}
	return total
}

// SiteLogLikelihoods fills dst (length NSites) with the per-site
// log-likelihoods, for diagnostics and tests.
func (e *Evaluator) SiteLogLikelihoods(t *gtree.Tree, dst []float64) {
	if len(dst) != e.nSites {
		panic("felsen: SiteLogLikelihoods dst length mismatch")
	}
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	e.prepare(t, s)
	e.dev.LaunchBlocks(e.nSites, func(lo, hi int) {
		b := e.blockPool.Get().(*blockScratch)
		defer e.blockPool.Put(b)
		for site := lo; site < hi; site++ {
			dst[site] = e.siteLogLikelihoodIter(t, s, b, site)
		}
	})
}

// siteLogLikelihoodIter is the iterative form of the pruning kernel: it
// walks the precomputed post-order sequence with flat per-block buffers,
// avoiding per-site recursion and stack traffic. Numerically it performs
// the identical operations to siteLogLikelihood in the identical order.
func (e *Evaluator) siteLogLikelihoodIter(t *gtree.Tree, s *scratch, b *blockScratch, site int) float64 {
	for _, node := range s.order {
		nd := &t.Nodes[node]
		if nd.IsTip() {
			if base, known := e.seqs[node].At(site); known {
				b.partials[node] = [4]float64{}
				b.partials[node][base] = 1
			} else {
				b.partials[node] = [4]float64{1, 1, 1, 1}
			}
			b.scale[node] = 0
			continue
		}
		c0, c1 := nd.Child[0], nd.Child[1]
		l, r := &b.partials[c0], &b.partials[c1]
		m0, m1 := &s.mats[c0], &s.mats[c1]
		out := &b.partials[node]
		maxv := 0.0
		for x := 0; x < 4; x++ {
			s0 := m0[x][0]*l[0] + m0[x][1]*l[1] + m0[x][2]*l[2] + m0[x][3]*l[3]
			s1 := m1[x][0]*r[0] + m1[x][1]*r[1] + m1[x][2]*r[2] + m1[x][3]*r[3]
			out[x] = s0 * s1
			if out[x] > maxv {
				maxv = out[x]
			}
		}
		b.scale[node] = b.scale[c0] + b.scale[c1]
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			for x := 0; x < 4; x++ {
				out[x] *= inv
			}
			b.scale[node] += math.Log(maxv)
		}
	}
	root := &b.partials[t.Root]
	siteL := e.freqs[0]*root[0] + e.freqs[1]*root[1] + e.freqs[2]*root[2] + e.freqs[3]*root[3]
	if siteL <= 0 {
		return logspace.NegInf
	}
	return math.Log(siteL) + b.scale[t.Root]
}

// siteLogLikelihood performs the recursive post-order descent of Eq. 19
// for one site: L_n(X) for interior node n is the product over children c
// of sum_Y P_XY(t_c) L_c(Y); at the root the conditionals contract with
// the prior frequencies (Eq. 21). Missing data positions contribute the
// all-ones vector. Conditionals are renormalized whenever they shrink
// below rescaleThreshold, with the log-scale carried separately (§5.3).
func (e *Evaluator) siteLogLikelihood(t *gtree.Tree, s *scratch, site int) float64 {
	logScale := 0.0
	var rec func(node int) [4]float64
	rec = func(node int) [4]float64 {
		nd := &t.Nodes[node]
		if nd.IsTip() {
			if b, known := e.seqs[node].At(site); known {
				var v [4]float64
				v[b] = 1
				return v
			}
			return [4]float64{1, 1, 1, 1}
		}
		c0, c1 := nd.Child[0], nd.Child[1]
		l := rec(c0)
		r := rec(c1)
		m0, m1 := &s.mats[c0], &s.mats[c1]
		var out [4]float64
		maxv := 0.0
		for x := 0; x < 4; x++ {
			var s0, s1 float64
			for y := 0; y < 4; y++ {
				s0 += m0[x][y] * l[y]
				s1 += m1[x][y] * r[y]
			}
			out[x] = s0 * s1
			if out[x] > maxv {
				maxv = out[x]
			}
		}
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			for x := 0; x < 4; x++ {
				out[x] *= inv
			}
			logScale += math.Log(maxv)
		}
		return out
	}
	rootCond := rec(t.Root)
	var siteL float64
	for x := 0; x < 4; x++ {
		siteL += e.freqs[x] * rootCond[x]
	}
	if siteL <= 0 {
		return logspace.NegInf
	}
	return math.Log(siteL) + logScale
}

// BruteForceLogLikelihood computes log P(D|G) by explicit enumeration of
// every assignment of nucleotides to interior nodes — exponential in tree
// size, usable only for tiny test trees (it refuses more than 7 interior
// nodes). It exists to validate the pruning recursion.
func BruteForceLogLikelihood(model subst.Model, seqs []*bitseq.Seq, t *gtree.Tree) (float64, error) {
	nInt := t.NInterior()
	if nInt > 7 {
		return 0, fmt.Errorf("felsen: brute force limited to 7 interior nodes, tree has %d", nInt)
	}
	nSites := seqs[0].Len()
	freqs := model.Freqs()
	mats := make([]subst.Matrix, t.NNodes())
	for i := range t.Nodes {
		if i != t.Root {
			model.TransitionInto(t.BranchLength(i), &mats[i])
		}
	}
	total := 0.0
	assign := make([]bitseq.Base, nInt)
	for site := 0; site < nSites; site++ {
		siteSum := 0.0
		var enumerate func(k int)
		enumerate = func(k int) {
			if k == nInt {
				p := freqs[assign[t.Root-t.NTips()]]
				for i := range t.Nodes {
					if i == t.Root {
						continue
					}
					parentState := assign[t.Nodes[i].Parent-t.NTips()]
					var childState bitseq.Base
					if t.IsTip(i) {
						b, known := seqs[i].At(site)
						if !known {
							continue // missing data: marginalized, factor 1
						}
						childState = b
					} else {
						childState = assign[i-t.NTips()]
					}
					p *= mats[i][parentState][childState]
				}
				siteSum += p
				return
			}
			for b := bitseq.Base(0); b < 4; b++ {
				assign[k] = b
				enumerate(k + 1)
			}
		}
		enumerate(0)
		if siteSum <= 0 {
			return logspace.NegInf, nil
		}
		total += math.Log(siteSum)
	}
	return total, nil
}
