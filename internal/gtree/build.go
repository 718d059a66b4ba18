package gtree

import (
	"fmt"

	"mpcgs/internal/rng"
)

// minAgeSep is the smallest allowed age gap between a parent and child,
// used to break exact ties (identical sequences produce zero UPGMA
// distances) so that ages remain strictly increasing root-ward.
const minAgeSep = 1e-12

// UPGMA builds the sampler's starting genealogy from a pairwise distance
// matrix by unweighted pair-group clustering (paper §5.1.3): repeatedly
// join the pair of clusters with the smallest mean pairwise distance,
// placing the join at half that distance. The result is ultrametric; tip i
// takes names[i]. Distances must be symmetric and non-negative.
func UPGMA(dist [][]float64, names []string) (*Tree, error) {
	n := len(dist)
	if n < 2 {
		return nil, fmt.Errorf("gtree: UPGMA needs at least 2 taxa, got %d", n)
	}
	if len(names) != n {
		return nil, fmt.Errorf("gtree: UPGMA got %d names for %d taxa", len(names), n)
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("gtree: distance row %d has %d entries, want %d", i, len(dist[i]), n)
		}
		for j := range dist[i] {
			if dist[i][j] < 0 {
				return nil, fmt.Errorf("gtree: negative distance d[%d][%d]=%v", i, j, dist[i][j])
			}
			if dist[i][j] != dist[j][i] {
				return nil, fmt.Errorf("gtree: asymmetric distance d[%d][%d]=%v, d[%d][%d]=%v",
					i, j, dist[i][j], j, i, dist[j][i])
			}
		}
	}

	t := New(n)
	for i := 0; i < n; i++ {
		t.Nodes[i].Name = names[i]
	}

	type cluster struct {
		node int
		size int
	}
	clusters := make([]cluster, n)
	d := make([][]float64, n)
	for i := 0; i < n; i++ {
		clusters[i] = cluster{node: i, size: 1}
		d[i] = make([]float64, n)
		copy(d[i], dist[i])
	}

	nextNode := n
	for len(clusters) > 1 {
		// Find the closest pair (ties broken by index for determinism).
		bi, bj := 0, 1
		best := d[0][1]
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d[i][j] < best {
					best, bi, bj = d[i][j], i, j
				}
			}
		}
		a, b := clusters[bi], clusters[bj]
		age := best / 2
		// Enforce strictly increasing ages in the face of ties or zero
		// distances.
		for _, c := range []int{a.node, b.node} {
			if age <= t.Nodes[c].Age {
				age = t.Nodes[c].Age + minAgeSep
			}
		}
		p := nextNode
		nextNode++
		t.Nodes[p].Child = [2]int{a.node, b.node}
		t.Nodes[p].Age = age
		t.Nodes[a.node].Parent = p
		t.Nodes[b.node].Parent = p

		// Merge bj into bi with size-weighted average distances (UPGMA).
		merged := cluster{node: p, size: a.size + b.size}
		for k := 0; k < len(clusters); k++ {
			if k == bi || k == bj {
				continue
			}
			avg := (d[bi][k]*float64(a.size) + d[bj][k]*float64(b.size)) / float64(a.size+b.size)
			d[bi][k] = avg
			d[k][bi] = avg
		}
		clusters[bi] = merged
		// Remove row/column bj.
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		d = append(d[:bj], d[bj+1:]...)
		for i := range d {
			d[i] = append(d[i][:bj], d[i][bj+1:]...)
		}
	}
	t.Root = clusters[0].node
	return t, t.Validate()
}

// RandomCoalescent simulates a genealogy from Kingman's coalescent with
// parameter theta: with k lineages the waiting time to the next
// coalescence is exponential with rate k(k-1)/theta (paper Eq. 17) and the
// coalescing pair is uniform. Tip i takes names[i]. This is both the ms
// substrate's generator and the fallback starting tree when all sequences
// are identical.
func RandomCoalescent(names []string, theta float64, src rng.Source) (*Tree, error) {
	if n := len(names); n < 2 {
		return nil, fmt.Errorf("gtree: RandomCoalescent needs at least 2 tips, got %d", n)
	}
	if theta <= 0 {
		return nil, fmt.Errorf("gtree: RandomCoalescent needs theta > 0, got %v", theta)
	}
	return Coalescent(names, src, func(k int, age float64) float64 {
		return age + rng.Exp(src, float64(k*(k-1))/theta)
	})
}

// Coalescent builds a genealogy of names (at least two) backward in time:
// while k lineages remain, next(k, age) draws the age of the next
// coalescence above age, then a uniform pair of the k lineages joins
// there. Tip i takes names[i], and interior nodes are numbered in the
// order they join. The waiting-time law is next's alone.
func Coalescent(names []string, src rng.Source, next func(k int, age float64) float64) (*Tree, error) {
	n := len(names)
	t := New(n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		t.Nodes[i].Name = names[i]
		active[i] = i
	}
	age := 0.0
	p := n
	for k := n; k >= 2; k-- {
		age = next(k, age)
		i, j := rng.UniformPair(src, k)
		a, b := active[i], active[j]
		t.Nodes[p].Child = [2]int{a, b}
		t.Nodes[p].Age = age
		t.Nodes[a].Parent = p
		t.Nodes[b].Parent = p
		// Replace lineage i with the parent, remove lineage j.
		active[i] = p
		active[j] = active[k-1]
		active = active[:k-1]
		p++
	}
	t.Root = p - 1
	return t, t.Validate()
}
