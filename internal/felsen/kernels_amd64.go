package felsen

import (
	"unsafe"

	"mpcgs/internal/subst"
)

// detectTier reports the widest kernel tier this CPU and OS run. AVX2
// needs the CPU to report AVX and AVX2 and the OS to save the YMM
// registers across context switches (OSXSAVE, with XCR0's SSE and AVX
// state bits set). AVX-512 needs AVX2 as well, since its kernels hand
// rescaling groups and 4-pattern tails to the AVX2 ones, plus AVX512F
// and XCR0's opmask, ZMM_Hi256 and Hi16_ZMM state bits.
func detectTier() tier {
	const (
		cpuidOSXSAVE = 1 << 27 // leaf 1, ECX
		cpuidAVX     = 1 << 28 // leaf 1, ECX
		cpuidAVX2    = 1 << 5  // leaf 7, EBX
		cpuidAVX512F = 1 << 16 // leaf 7, EBX
		xcr0SSEAVX   = 1<<1 | 1<<2
		xcr0AVX512   = xcr0SSEAVX | 1<<5 | 1<<6 | 1<<7
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tierScalar
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return tierScalar
	}
	xcr0 := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	switch {
	case xcr0&xcr0SSEAVX != xcr0SSEAVX || ebx7&cpuidAVX2 == 0:
		return tierScalar
	case xcr0&xcr0AVX512 != xcr0AVX512 || ebx7&cpuidAVX512F == 0:
		return tierAVX2
	}
	return tierAVX512
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// The assembly kernels process `groups` whole groups of 4 (AVX2) or 8
// (AVX512) patterns from the given lane pointers. The node and walk
// kernels stop before the first group that needs rescaling, leaving it
// unwritten, and return the number of patterns they finished.

//go:noescape
func nodeKernelAVX2(l *float64, lstride int, ls *float64, r *float64, rstride int, rs *float64, o *float64, ostride int, os *float64, m0, m1 *subst.Matrix, groups int) (done int)

//go:noescape
func walkKernelAVX2(s *float64, sstride int, ss *float64, c *float64, cstride int, cs *float64, m *subst.Matrix, groups int) (done int)

//go:noescape
func liftKernelAVX2(v *float64, vstride int, o *float64, ostride int, m *subst.Matrix, groups int)

//go:noescape
func nodeKernelAVX512(l *float64, lstride int, ls *float64, r *float64, rstride int, rs *float64, o *float64, ostride int, os *float64, m0, m1 *subst.Matrix, groups int) (done int)

//go:noescape
func walkKernelAVX512(s *float64, sstride int, ss *float64, c *float64, cstride int, cs *float64, m *subst.Matrix, groups int) (done int)

//go:noescape
func liftKernelAVX512(v *float64, vstride int, o *float64, ostride int, m *subst.Matrix, groups int)

// rootTermsAVX2 and rootTermsAVX512 write the root-contraction terms of
// `groups` whole 4- or 8-pattern groups to t, one per pattern. Each
// stops before the first group in which any lane's likelihood is not a
// normal finite float64, leaving that group's terms unwritten, and
// returns the number of patterns it finished.
//
//go:noescape
func rootTermsAVX2(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, t *float64, groups int) (done int)

//go:noescape
func rootTermsAVX512(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, t *float64, groups int) (done int)

// cellKernelAVX512 evaluates `groups` whole 8-pattern groups of one
// wave cell from pattern lo on, each in ZMM registers from the leaves to
// the root: the target row from its children (tl, tr; matrices tm0,
// tm1), the parent row from it and the parent's clean child (cv; pmPhi,
// pmClean), one walk step per root-path level (lv[0:depth], level 0
// over am), then the root contraction with frequencies f and pattern
// counts pc. It writes each pattern's term to t, group by group, and
// nothing else. Every row pointer is lane 0 at pattern 0 with lane
// stride `stride`. It stops before the first group in which some lane
// of some node has no state at or above rescaleThreshold (every group
// the node kernels would rescale, and one with no positive state) or
// some lane's root likelihood is not a normal finite float64, leaving
// that group's terms unwritten, and returns the number of patterns it
// finished.
//
//go:noescape
func cellKernelAVX512(tl, tls, tr, trs, cv, cvs *float64, stride int, tm0, tm1, pmPhi, pmClean, am *subst.Matrix,
	lv *cellLevel, depth int, pc *float64, f *[4]float64, t *float64, lo, groups int) (done int)

// The fused kernel reads cellLevel's fields at offsets 0, 8 and 16; a
// layout change fails to compile here.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(cellLevel{}.scale)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(cellLevel{}.m)-16]
)

// chainKernelAVX512 evaluates `groups` whole 8-pattern groups of one
// delta evaluation's chain of dirty rows (rows[0:nrows], see
// deltaScratch.chain) from pattern lo on, each in ZMM registers from the
// lowest row to the root: the lowest row from its two children, every
// row above from the row below (its left child) and its clean right
// child. It stores each row's state and scale lanes to the row's output
// lanes and each pattern's root-contraction term, with frequencies f and
// pattern counts pc, to t. Every row pointer is lane 0 at pattern 0 with
// lane stride `stride`. It stops before the first group in which some
// lane of some row has no state at or above rescaleThreshold or some
// lane's root likelihood is not a normal finite float64, the cell
// kernel's rule, leaving that group's term unwritten and its rows to be
// rewritten, and returns the number of patterns it finished.
//
//go:noescape
func chainKernelAVX512(rows *rowRef, nrows, stride int, pc *float64, f *[4]float64, t *float64, lo, groups int) (done int)

// The chain kernel reads each rowRef slice's data pointer and both
// matrix pointers at these offsets, and steps 160 bytes per row; a
// layout change fails to compile here.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.lc)]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.ls)-24]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.rc)-48]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.rs)-72]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.oc)-96]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.os)-120]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.m0)-144]
	_ = [1]struct{}{}[unsafe.Offsetof(rowRef{}.m1)-152]
	_ = [1]struct{}{}[unsafe.Sizeof(rowRef{})-160]
)

// chainVec runs runBlock's fused kernel over patterns [i, n) at the
// AVX512 tier when the evaluation's dirty rows form a chain, writing
// pattern i+k's term to t[k], and returns how many patterns it finished;
// otherwise it finishes none. It takes the whole 8-pattern groups from
// i, then an n%8 tail as the group [n-8, n): that group's first patterns
// are finished already, and the kernel rewrites their rows and terms
// with the bits it wrote before, since every lane is computed alone from
// clean rows. Every row bindRows resolves is a full node-major row
// (rowLanes), so it covers every pattern; the counts and t are checked
// here.
func (ds *deltaScratch) chainVec(i, n int, t []float64) int {
	if kernelTier != tierAVX512 || !ds.chain || n-i < 8 {
		return 0
	}
	e := ds.e
	_ = e.patCount[n-1]
	_ = t[n-i-1]
	done := chainKernelAVX512(&ds.rows[0], len(ds.rows), e.stride, &e.patCount[0], &e.freqs, &t[0], i, (n-i)/8)
	if i+done == n-(n-i)%8 && i+done < n &&
		chainKernelAVX512(&ds.rows[0], len(ds.rows), e.stride, &e.patCount[0], &e.freqs, &t[n-8-i], n-8, 1) == 8 {
		done = n - i
	}
	return done
}

// cellVec runs cellSum's fused kernel over the whole 8-pattern groups of
// patterns [i, n) at the AVX512 tier, writing pattern i+k's term to
// t[k], and returns how many patterns it finished; at other tiers it
// finishes none. The round's levels cover every pattern by construction
// (bindLevels); the candidate's rows, the counts and t are checked here.
func (w *Wave) cellVec(pr *waveProp, i, n int, t []float64) int {
	if kernelTier != tierAVX512 || n-i < 8 {
		return 0
	}
	e := w.e
	tl, tr, cv := e.rowAt(pr.tlc, pr.tls, 0), e.rowAt(pr.trc, pr.trs, 0), e.rowAt(pr.cvc, pr.cvs, 0)
	tl.span(i, n, true)
	tr.span(i, n, true)
	cv.span(i, n, true)
	_ = e.patCount[n-1]
	_ = t[n-i-1]
	var lv *cellLevel
	if len(w.levels) > 0 {
		lv = &w.levels[0]
	}
	return cellKernelAVX512(&tl.cond[0], &tl.scale[0], &tr.cond[0], &tr.scale[0], &cv.cond[0], &cv.scale[0], e.stride,
		&pr.tm0, &pr.tm1, &pr.pmPhi, &pr.pmClean, &pr.am, lv, len(w.levels), &e.patCount[0], &e.freqs, &t[0], i, (n-i)/8)
}

// span bounds-checks the lanes the assembly reads or writes for patterns
// [i, n) of v, n > i: the first pattern of state lane 0, the last of
// state lane 3 and, with scale, both ends of the scale lane. The kernels
// themselves check nothing.
func (v rowView) span(i, n int, scale bool) {
	_ = v.cond[i]
	_ = v.cond[3*v.stride+n-1]
	if scale {
		_ = v.scale[i]
		_ = v.scale[n-1]
	}
}

// nodeVec runs evalNode's whole 4-pattern groups from pattern i on and
// returns how many patterns it finished: at the AVX512 tier whole
// 8-pattern groups first, then the AVX2 kernel on the 4-pattern rest. An
// 8-pattern group that needs rescaling goes to the AVX2 kernel as two
// 4-pattern groups, so the stop is always at the first 4-pattern group
// that needs rescaling, whatever the tier.
func nodeVec(l, r, o rowView, m0, m1 *subst.Matrix, i, n int) int {
	if n-i < 4 {
		return 0
	}
	l.span(i, n, true)
	r.span(i, n, true)
	o.span(i, n, true)
	lo := i
	if kernelTier == tierAVX512 && n-i >= 8 {
		i += nodeKernelAVX512(&l.cond[i], l.stride, &l.scale[i], &r.cond[i], r.stride, &r.scale[i],
			&o.cond[i], o.stride, &o.scale[i], m0, m1, (n-i)/8)
		if n-i >= 8 { // the 8-pattern group at i needs rescaling
			return i - lo + nodeKernelAVX2(&l.cond[i], l.stride, &l.scale[i], &r.cond[i], r.stride, &r.scale[i],
				&o.cond[i], o.stride, &o.scale[i], m0, m1, 2)
		}
	}
	if n-i >= 4 {
		i += nodeKernelAVX2(&l.cond[i], l.stride, &l.scale[i], &r.cond[i], r.stride, &r.scale[i],
			&o.cond[i], o.stride, &o.scale[i], m0, m1, (n-i)/4)
	}
	return i - lo
}

// walkVec runs evalWalk's whole 4-pattern groups from pattern i on and
// returns how many patterns it finished, by nodeVec's tiers and stop.
func walkVec(s, c rowView, m *subst.Matrix, i, n int) int {
	if n-i < 4 {
		return 0
	}
	s.span(i, n, true)
	c.span(i, n, true)
	lo := i
	if kernelTier == tierAVX512 && n-i >= 8 {
		i += walkKernelAVX512(&s.cond[i], s.stride, &s.scale[i], &c.cond[i], c.stride, &c.scale[i], m, (n-i)/8)
		if n-i >= 8 { // the 8-pattern group at i needs rescaling
			return i - lo + walkKernelAVX2(&s.cond[i], s.stride, &s.scale[i], &c.cond[i], c.stride, &c.scale[i], m, 2)
		}
	}
	if n-i >= 4 {
		i += walkKernelAVX2(&s.cond[i], s.stride, &s.scale[i], &c.cond[i], c.stride, &c.scale[i], m, (n-i)/4)
	}
	return i - lo
}

// liftVec runs evalLift's whole 4-pattern groups, at the AVX512 tier as
// 8-pattern groups and at most one AVX2 4-pattern group, and returns how
// many patterns it finished.
func liftVec(v, o rowView, m *subst.Matrix, n int) int {
	if n < 4 {
		return 0
	}
	v.span(0, n, false)
	o.span(0, n, false)
	i := 0
	if kernelTier == tierAVX512 && n >= 8 {
		liftKernelAVX512(&v.cond[0], v.stride, &o.cond[0], o.stride, m, n/8)
		i = n - n%8
	}
	if n-i >= 4 {
		liftKernelAVX2(&v.cond[i], v.stride, &o.cond[i], o.stride, m, (n-i)/4)
	}
	return n - n%4
}

// rootVec writes rootTerms' terms of whole 4-pattern groups from
// pattern i on to t[0:], t[k] for pattern i+k, and returns how many
// patterns it finished: at the AVX512 tier whole 8-pattern groups first,
// then at most one AVX2 4-pattern group. It stops at the first group
// that must go to the scalar loop, an 8-pattern group at the AVX512
// tier and a 4-pattern one otherwise.
func rootVec(v rowView, pc []float64, f *[4]float64, i, n int, t []float64) int {
	if n-i < 4 {
		return 0
	}
	v.span(i, n, true)
	_ = pc[n-1]
	_ = t[n-i-1]
	lo := i
	if kernelTier == tierAVX512 && n-i >= 8 {
		i += rootTermsAVX512(&v.cond[i], v.stride, &v.scale[i], &pc[i], f, &t[0], (n-i)/8)
		if n-i >= 8 { // the 8-pattern group at i bails out
			return i - lo
		}
	}
	if n-i >= 4 {
		i += rootTermsAVX2(&v.cond[i], v.stride, &v.scale[i], &pc[i], f, &t[i-lo], (n-i)/4)
	}
	return i - lo
}
