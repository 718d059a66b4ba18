package mssim

import (
	"fmt"
	"math"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// SimulateGrowth generates a genealogy from the exponential-growth
// coalescent: looking backward in time the population shrinks as
// N(t) = N_0·e^{-g·t}, so with k lineages at time a the next coalescence
// time solves the inhomogeneous exponential
//
//	Λ(t) = k(k-1)·(e^{g(a+t)} - e^{g·a}) / (g·θ) = E,  E ~ Exp(1),
//
// inverted in closed form. g must be non-negative: with g < 0 the
// cumulative rate is bounded and the genealogy may never find a common
// ancestor. g = 0 reduces to the constant-size coalescent.
func SimulateGrowth(names []string, theta, g float64, src rng.Source) (*gtree.Tree, error) {
	if n := len(names); n < 2 {
		return nil, fmt.Errorf("mssim: need at least 2 tips, got %d", n)
	}
	if theta <= 0 {
		return nil, fmt.Errorf("mssim: theta %v must be positive", theta)
	}
	if g < 0 {
		return nil, fmt.Errorf("mssim: growth rate %v must be non-negative (the backward coalescent need not terminate)", g)
	}
	if g == 0 {
		return gtree.RandomCoalescent(names, theta, src)
	}
	return gtree.Coalescent(names, src, func(k int, age float64) float64 {
		e := rng.Exp(src, 1)
		// Invert Λ: e^{g·(age+t)} = e^{g·age} + g·θ·E / (k(k-1)).
		arg := math.Exp(g*age) + g*theta*e/float64(k*(k-1))
		next := math.Log(arg) / g
		if next <= age {
			// Floating point at extreme growth: force strict ordering.
			next = age + age*1e-12 + 1e-300
		}
		return next
	})
}
