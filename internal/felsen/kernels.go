package felsen

// Per-pattern kernels of the delta and wave evaluators.
//
// Every kernel here evaluates one node's conditional row over a range of
// patterns, and patterns never interact, so a kernel may process them in
// any grouping. On amd64 the kernels run in Go assembly
// (kernels_amd64.s) at the widest tier the CPU offers, detected once at
// package init: AVX-512F, eight patterns per ZMM register, or AVX2,
// four per YMM register. Either way each vector multiply or add stands
// for one scalar one, in the scalar loop's order and without fused
// multiply-add, so each lane rounds exactly as the scalar code does and
// the results are bit-identical to the scalar loops below at every tier.
// The fallback order is fixed: whole 8-pattern groups (AVX-512), then
// 4-pattern groups (AVX2), then the scalar loop. An 8-pattern group in
// which any lane needs rescaling runs as two 4-pattern groups; a
// 4-pattern group that needs rescaling, and the n%4 tail, run through
// the scalar loop, the single rescaling path: the vector code never
// rescales. The root contraction runs in two phases, as the paper's
// data likelihood kernel does (§5.2.2): the vector kernels write each
// pattern's term, taking the log by the instruction sequence math.Log
// runs on amd64, and one Go loop then adds a block's terms in pattern
// order from +0. At the AVX-512 tier a wave cell, and a delta
// evaluation whose dirty rows form a chain, fuse their node, walk and
// root kernels into one call per block, falling back to the kernels
// here for a group that may need rescaling (see cellSum in wave.go and
// runBlock in delta.go). Elsewhere the scalar loops run alone.
//
// # Lane layout
//
// Node-major rows (the tip table, the delta cache, staged scratch, the
// wave's outer lanes and its cell rows) have a lane stride of their
// pattern count rounded up to a multiple of eight (laneStride), and
// each block of them starts on a 64-byte boundary (alignedLanes). So
// every state and scale lane starts on a cache line, and an 8-pattern
// group from an aligned pattern never splits one. The at most seven
// pad entries at the end of a lane are never read: every kernel reads
// and writes only patterns [lo, hi) of the pattern count.

import (
	"math"
	"unsafe"

	"mpcgs/internal/logspace"
	"mpcgs/internal/subst"
)

// tier is an instruction set the pattern kernels run at. The tiers are
// ordered: a CPU that runs one runs every tier below it.
type tier uint8

const (
	tierScalar tier = iota
	tierAVX2
	tierAVX512
)

var tierNames = [...]string{tierScalar: "scalar", tierAVX2: "avx2", tierAVX512: "avx512"}

func (t tier) String() string { return tierNames[t] }

// kernelTier is the tier the kernels run at: the widest this CPU offers
// (detectTier), set once at package init.
var kernelTier = detectTier()

// KernelTier names the instruction set felsen's pattern kernels run at
// on this CPU: "avx512", "avx2" or "scalar". Results are bit-identical
// at every tier; only their speed differs.
func KernelTier() string { return kernelTier.String() }

// rowView is one conditional row viewed from the first pattern of a
// range: state lane x is cond[x*stride:], the rescaling-log lane scale.
// Node-major rows have the evaluator's lane stride (Evaluator.stride); a
// wave cell's working rows have stride laneStride(blockSize).
type rowView struct {
	cond   []float64
	scale  []float64
	stride int
}

// laneAlign is the lane alignment in float64s: one 64-byte cache line,
// one ZMM register of eight patterns.
const laneAlign = 8

// laneStride returns the lane stride of rows over n patterns: n rounded
// up to a multiple of laneAlign, so at most laneAlign-1 pad entries per
// lane.
func laneStride(n int) int { return (n + laneAlign - 1) &^ (laneAlign - 1) }

// alignedLanes returns n zeroed float64s starting on a 64-byte boundary,
// the one allocation of every block of node-major rows. Go aligns a
// []float64 to 8 bytes only, so it allocates laneAlign-1 spare entries
// and starts at the first aligned one; the heap does not move objects,
// so the alignment holds for the slice's lifetime.
func alignedLanes(n int) []float64 {
	s := make([]float64, n+laneAlign-1)
	off := (laneAlign - int(uintptr(unsafe.Pointer(unsafe.SliceData(s)))/8%laneAlign)) % laneAlign
	return s[off : off+n : off+n]
}

// evalNode computes o = (m0·l) ⊙ (m1·r) over patterns [0, n), with the
// running maximum, rescale test and scale add: the node step of the
// pruning recursion, for a node whose children's rows are l and r over
// edge matrices m0 and m1. o must not alias l or r.
//
//mpcgs:hotpath
func evalNode(l, r, o rowView, m0, m1 *subst.Matrix, n int) {
	i := 0
	for kernelTier != tierScalar && n-i >= 4 {
		i += nodeVec(l, r, o, m0, m1, i, n)
		if n-i < 4 {
			break
		}
		nodeScalar(l, r, o, m0, m1, i, i+4)
		i += 4
	}
	if i < n {
		nodeScalar(l, r, o, m0, m1, i, n)
	}
}

// nodeScalar is evalNode's loop over patterns [lo, hi). The per-pattern
// arithmetic and its operation order are siteLogLikelihoodIter's.
func nodeScalar(l, r, o rowView, m0, m1 *subst.Matrix, lo, hi int) {
	a00, a01, a02, a03 := m0[0][0], m0[0][1], m0[0][2], m0[0][3]
	a10, a11, a12, a13 := m0[1][0], m0[1][1], m0[1][2], m0[1][3]
	a20, a21, a22, a23 := m0[2][0], m0[2][1], m0[2][2], m0[2][3]
	a30, a31, a32, a33 := m0[3][0], m0[3][1], m0[3][2], m0[3][3]
	b00, b01, b02, b03 := m1[0][0], m1[0][1], m1[0][2], m1[0][3]
	b10, b11, b12, b13 := m1[1][0], m1[1][1], m1[1][2], m1[1][3]
	b20, b21, b22, b23 := m1[2][0], m1[2][1], m1[2][2], m1[2][3]
	b30, b31, b32, b33 := m1[3][0], m1[3][1], m1[3][2], m1[3][3]
	o0 := o.cond[lo:hi]
	o1 := o.cond[o.stride+lo : o.stride+hi]
	o2 := o.cond[2*o.stride+lo : 2*o.stride+hi]
	o3 := o.cond[3*o.stride+lo : 3*o.stride+hi]
	l0 := l.cond[lo:hi]
	l1 := l.cond[l.stride+lo : l.stride+hi]
	l2 := l.cond[2*l.stride+lo : 2*l.stride+hi]
	l3 := l.cond[3*l.stride+lo : 3*l.stride+hi]
	r0 := r.cond[lo:hi]
	r1 := r.cond[r.stride+lo : r.stride+hi]
	r2 := r.cond[2*r.stride+lo : 2*r.stride+hi]
	r3 := r.cond[3*r.stride+lo : 3*r.stride+hi]
	ls := l.scale[lo:hi]
	rs := r.scale[lo:hi]
	os := o.scale[lo:hi]
	// Pin every lane to the loop slice's length so the compiler can
	// prove i in range for all of them (bounds-check elimination).
	n := len(o0)
	o1, o2, o3 = o1[:n], o2[:n], o3[:n]
	l0, l1, l2, l3 = l0[:n], l1[:n], l2[:n], l3[:n]
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	ls, rs, os = ls[:n], rs[:n], os[:n]
	for i := range o0 {
		u0, u1, u2, u3 := l0[i], l1[i], l2[i], l3[i]
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		w0 := (a00*u0 + a01*u1 + a02*u2 + a03*u3) * (b00*v0 + b01*v1 + b02*v2 + b03*v3)
		w1 := (a10*u0 + a11*u1 + a12*u2 + a13*u3) * (b10*v0 + b11*v1 + b12*v2 + b13*v3)
		w2 := (a20*u0 + a21*u1 + a22*u2 + a23*u3) * (b20*v0 + b21*v1 + b22*v2 + b23*v3)
		w3 := (a30*u0 + a31*u1 + a32*u2 + a33*u3) * (b30*v0 + b31*v1 + b32*v2 + b33*v3)
		maxv := 0.0
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
		sc := ls[i] + rs[i]
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

// evalWalk advances a wave cell's working row s one node up the root
// path over patterns [0, n): s ← (m·s) ⊙ c in place, where c is the
// node's outer-partial row (the clean side's dot products, see wave.go)
// carrying the clean child's scale lane, followed by runBlock's running
// maximum, rescale test and scale add.
//
//mpcgs:hotpath
func evalWalk(s, c rowView, m *subst.Matrix, n int) {
	i := 0
	for kernelTier != tierScalar && n-i >= 4 {
		i += walkVec(s, c, m, i, n)
		if n-i < 4 {
			break
		}
		walkScalar(s, c, m, i, i+4)
		i += 4
	}
	if i < n {
		walkScalar(s, c, m, i, n)
	}
}

// walkScalar is evalWalk's loop over patterns [lo, hi). Each iteration
// loads all four states before storing, so the update is in place.
func walkScalar(s, c rowView, m *subst.Matrix, lo, hi int) {
	a00, a01, a02, a03 := m[0][0], m[0][1], m[0][2], m[0][3]
	a10, a11, a12, a13 := m[1][0], m[1][1], m[1][2], m[1][3]
	a20, a21, a22, a23 := m[2][0], m[2][1], m[2][2], m[2][3]
	a30, a31, a32, a33 := m[3][0], m[3][1], m[3][2], m[3][3]
	s0 := s.cond[lo:hi]
	s1 := s.cond[s.stride+lo : s.stride+hi]
	s2 := s.cond[2*s.stride+lo : 2*s.stride+hi]
	s3 := s.cond[3*s.stride+lo : 3*s.stride+hi]
	o0 := c.cond[lo:hi]
	o1 := c.cond[c.stride+lo : c.stride+hi]
	o2 := c.cond[2*c.stride+lo : 2*c.stride+hi]
	o3 := c.cond[3*c.stride+lo : 3*c.stride+hi]
	ss := s.scale[lo:hi]
	cs := c.scale[lo:hi]
	n := len(s0)
	s1, s2, s3, ss = s1[:n], s2[:n], s3[:n], ss[:n]
	o0, o1, o2, o3, cs = o0[:n], o1[:n], o2[:n], o3[:n], cs[:n]
	for i := range s0 {
		u0, u1, u2, u3 := s0[i], s1[i], s2[i], s3[i]
		w0 := (a00*u0 + a01*u1 + a02*u2 + a03*u3) * o0[i]
		w1 := (a10*u0 + a11*u1 + a12*u2 + a13*u3) * o1[i]
		w2 := (a20*u0 + a21*u1 + a22*u2 + a23*u3) * o2[i]
		w3 := (a30*u0 + a31*u1 + a32*u2 + a33*u3) * o3[i]
		maxv := 0.0
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
		sc := ss[i] + cs[i]
		if maxv < rescaleThreshold && maxv > 0 {
			inv := 1 / maxv
			w0 *= inv
			w1 *= inv
			w2 *= inv
			w3 *= inv
			sc += math.Log(maxv)
		}
		s0[i] = w0
		s1[i] = w1
		s2[i] = w2
		s3[i] = w3
		ss[i] = sc
	}
}

// evalLift computes the outer-partial lanes o = m·v over patterns
// [0, n): one clean-side dot product per state, with runBlock's
// left-to-right association. Neither row's scale lane is used.
//
//mpcgs:hotpath
func evalLift(v, o rowView, m *subst.Matrix, n int) {
	i := 0
	if kernelTier != tierScalar {
		i = liftVec(v, o, m, n)
	}
	if i < n {
		liftScalar(v, o, m, i, n)
	}
}

// liftScalar is evalLift's loop over patterns [lo, hi).
func liftScalar(v, o rowView, m *subst.Matrix, lo, hi int) {
	b00, b01, b02, b03 := m[0][0], m[0][1], m[0][2], m[0][3]
	b10, b11, b12, b13 := m[1][0], m[1][1], m[1][2], m[1][3]
	b20, b21, b22, b23 := m[2][0], m[2][1], m[2][2], m[2][3]
	b30, b31, b32, b33 := m[3][0], m[3][1], m[3][2], m[3][3]
	v0 := v.cond[lo:hi]
	v1 := v.cond[v.stride+lo : v.stride+hi]
	v2 := v.cond[2*v.stride+lo : 2*v.stride+hi]
	v3 := v.cond[3*v.stride+lo : 3*v.stride+hi]
	o0 := o.cond[lo:hi]
	o1 := o.cond[o.stride+lo : o.stride+hi]
	o2 := o.cond[2*o.stride+lo : 2*o.stride+hi]
	o3 := o.cond[3*o.stride+lo : 3*o.stride+hi]
	n := len(o0)
	o1, o2, o3 = o1[:n], o2[:n], o3[:n]
	v0, v1, v2, v3 = v0[:n], v1[:n], v2[:n], v3[:n]
	for i := range o0 {
		x0, x1, x2, x3 := v0[i], v1[i], v2[i], v3[i]
		o0[i] = b00*x0 + b01*x1 + b02*x2 + b03*x3
		o1[i] = b10*x0 + b11*x1 + b12*x2 + b13*x3
		o2[i] = b20*x0 + b21*x1 + b22*x2 + b23*x3
		o3[i] = b30*x0 + b31*x1 + b32*x2 + b33*x3
	}
}

// rootTerms writes the root-contraction terms of patterns [lo, hi) to
// t[0 : hi-lo]. The vector kernels mirror math.Log's amd64 assembly
// (archLog in $GOROOT/src/math/log_amd64.s), the function math.Log runs
// on that architecture, op for op in each lane, so every term carries
// the bits rootTermScalar computes. A vector group goes to the scalar
// loop unless every lane's likelihood is a normal finite float64:
// archLog's special cases (zero, negative, +Inf, NaN) and the
// subnormals, which archLog does not normalise, stay with math.Log
// itself. Such a group is the width of the kernel that met it: eight
// patterns at the AVX512 tier, four at AVX2.
//
//mpcgs:hotpath
func rootTerms(v rowView, pc []float64, f *[4]float64, lo, hi int, t []float64) {
	i := lo
	for kernelTier != tierScalar && hi-i >= 4 {
		i += rootVec(v, pc, f, i, hi, t[i-lo:])
		if hi-i < 4 {
			break
		}
		// At the AVX512 tier rootVec leaves 8 or more patterns only when
		// an 8-pattern group bailed out.
		w := 4
		if kernelTier == tierAVX512 && hi-i >= 8 {
			w = 8
		}
		rootTermScalar(v, pc, f, i, i+w, t[i-lo:])
		i += w
	}
	if i < hi {
		rootTermScalar(v, pc, f, i, hi, t[i-lo:])
	}
}

// rootTermScalar is rootTerms' loop over patterns [lo, hi), writing
// pattern lo+i's term to t[i].
//
//mpcgs:hotpath
func rootTermScalar(v rowView, pc []float64, f *[4]float64, lo, hi int, t []float64) {
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	s0 := v.cond[lo:hi]
	s1 := v.cond[v.stride+lo : v.stride+hi]
	s2 := v.cond[2*v.stride+lo : 2*v.stride+hi]
	s3 := v.cond[3*v.stride+lo : 3*v.stride+hi]
	ss := v.scale[lo:hi]
	pc = pc[lo:hi]
	n := len(s0)
	s1, s2, s3, ss, pc, t = s1[:n], s2[:n], s3[:n], ss[:n], pc[:n], t[:n]
	for i := range s0 {
		siteL := f0*s0[i] + f1*s1[i] + f2*s2[i] + f3*s3[i]
		if siteL <= 0 {
			t[i] = logspace.NegInf
			continue
		}
		t[i] = pc[i] * (math.Log(siteL) + ss[i])
	}
}
