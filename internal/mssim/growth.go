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
	n := len(names)
	if n < 2 {
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
	t := gtree.New(n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		t.Nodes[i].Name = names[i]
		active[i] = i
	}
	age := 0.0
	next := n
	for k := n; k >= 2; k-- {
		e := rng.Exp(src, 1)
		// Invert Λ: e^{g·(age+t)} = e^{g·age} + g·θ·E / (k(k-1)).
		arg := math.Exp(g*age) + g*theta*e/float64(k*(k-1))
		newAge := math.Log(arg) / g
		if newAge <= age {
			// Floating point at extreme growth: force strict ordering.
			newAge = age + age*1e-12 + 1e-300
		}
		age = newAge
		i, j := rng.UniformPair(src, k)
		p := next
		next++
		a, b := active[i], active[j]
		t.Nodes[p].Child = [2]int{a, b}
		t.Nodes[p].Age = age
		t.Nodes[a].Parent = p
		t.Nodes[b].Parent = p
		active[i] = p
		active[j] = active[k-1]
		active = active[:k-1]
	}
	t.Root = next - 1
	return t, t.Validate()
}
