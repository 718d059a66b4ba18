package felsen

import "mpcgs/internal/subst"

// useAVX2 selects the AVX2 pattern kernels (kernels_amd64.s). It is set
// once, at package init: the CPU must report AVX and AVX2, and the OS
// must save the YMM registers across context switches (OSXSAVE, with
// XCR0's SSE and AVX state bits set).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		cpuidOSXSAVE = 1 << 27 // leaf 1, ECX
		cpuidAVX     = 1 << 28 // leaf 1, ECX
		cpuidAVX2    = 1 << 5  // leaf 7, EBX
		xcr0SSEAVX   = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 || xgetbv()&xcr0SSEAVX != xcr0SSEAVX {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// The assembly kernels process `groups` whole 4-pattern groups from the
// given lane pointers. nodeKernelAVX2 and walkKernelAVX2 stop before the
// first group that needs rescaling, leaving it unwritten, and return the
// number of patterns they finished.

//go:noescape
func nodeKernelAVX2(l *float64, lstride int, ls *float64, r *float64, rstride int, rs *float64, o *float64, ostride int, os *float64, m0, m1 *subst.Matrix, groups int) (done int)

//go:noescape
func walkKernelAVX2(s *float64, sstride int, ss *float64, c *float64, cstride int, cs *float64, m *subst.Matrix, groups int) (done int)

//go:noescape
func liftKernelAVX2(v *float64, vstride int, o *float64, ostride int, m *subst.Matrix, groups int)

// rootKernelAVX2 adds the root-contraction terms of `groups` whole
// 4-pattern groups to sum and returns the new sum. It stops before the
// first group in which any lane's likelihood is not a normal finite
// float64, leaving that group's terms out, and returns the number of
// patterns it finished.
//
//go:noescape
func rootKernelAVX2(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, sum float64, groups int) (out float64, done int)

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
// returns how many patterns it finished.
func nodeVec(l, r, o rowView, m0, m1 *subst.Matrix, i, n int) int {
	if n-i < 4 {
		return 0
	}
	l.span(i, n, true)
	r.span(i, n, true)
	o.span(i, n, true)
	return nodeKernelAVX2(&l.cond[i], l.stride, &l.scale[i], &r.cond[i], r.stride, &r.scale[i],
		&o.cond[i], o.stride, &o.scale[i], m0, m1, (n-i)/4)
}

// walkVec runs evalWalk's whole 4-pattern groups from pattern i on and
// returns how many patterns it finished.
func walkVec(s, c rowView, m *subst.Matrix, i, n int) int {
	if n-i < 4 {
		return 0
	}
	s.span(i, n, true)
	c.span(i, n, true)
	return walkKernelAVX2(&s.cond[i], s.stride, &s.scale[i], &c.cond[i], c.stride, &c.scale[i], m, (n-i)/4)
}

// liftVec runs evalLift's whole 4-pattern groups and returns how many
// patterns it finished.
func liftVec(v, o rowView, m *subst.Matrix, n int) int {
	if n < 4 {
		return 0
	}
	v.span(0, n, false)
	o.span(0, n, false)
	liftKernelAVX2(&v.cond[0], v.stride, &o.cond[0], o.stride, m, n/4)
	return n - n%4
}

// rootVec runs evalRoot's whole 4-pattern groups from pattern i on,
// adding their terms to sum, and returns the new sum and how many
// patterns it finished.
func rootVec(v rowView, pc []float64, f *[4]float64, sum float64, i, n int) (float64, int) {
	if n-i < 4 {
		return sum, 0
	}
	v.span(i, n, true)
	_ = pc[n-1]
	return rootKernelAVX2(&v.cond[i], v.stride, &v.scale[i], &pc[i], f, sum, (n-i)/4)
}
