//go:build !amd64

package felsen

import "mpcgs/internal/subst"

// detectTier is always the scalar tier off amd64: the scalar loops run
// alone.
func detectTier() tier { return tierScalar }

func nodeVec(l, r, o rowView, m0, m1 *subst.Matrix, i, n int) int { return 0 }

func walkVec(s, c rowView, m *subst.Matrix, i, n int) int { return 0 }

func liftVec(v, o rowView, m *subst.Matrix, n int) int { return 0 }

func rootVec(v rowView, pc []float64, f *[4]float64, i, n int, t []float64) int { return 0 }

func (w *Wave) cellVec(pr *waveProp, i, n int, t []float64) int { return 0 }
