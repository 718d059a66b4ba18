//go:build !amd64

package felsen

import "mpcgs/internal/subst"

// useAVX2 is always false off amd64: the scalar loops run alone.
var useAVX2 = false

func nodeVec(l, r, o rowView, m0, m1 *subst.Matrix, i, n int) int { return 0 }

func walkVec(s, c rowView, m *subst.Matrix, i, n int) int { return 0 }

func liftVec(v, o rowView, m *subst.Matrix, n int) int { return 0 }

func rootVec(v rowView, pc []float64, f *[4]float64, sum float64, i, n int) (float64, int) {
	return sum, 0
}
