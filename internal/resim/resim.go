// Package resim implements the proposal kernel of the sampler: the
// LAMARC-style resimulation of the neighbourhood around a target interior
// node (paper §4.2-4.3).
//
// Deleting the target node and its parent leaves three dangling child
// lineages (the target's two children and its sibling) which must be
// re-joined by two new coalescent events before reaching the ancestor (the
// deleted parent's parent) — or, when the deleted parent was the root, by
// two events the older of which becomes the new root. The two events are
// drawn from the coalescent prior conditioned on everything outside the
// neighbourhood:
//
//   - The region is cut into feasible intervals at every age where the
//     number of inactive (fixed) lineages k_in or active lineages changes
//     (§4.2, Fig. 8).
//   - Within an interval with a active lineages, active-active merges occur
//     at rate μ_a = a(a-1)/θ while the conditional prior's cross terms with
//     the k_in inactive lineages contribute a "killing" rate 2·a·k_in/θ
//     that the proposal conditions against; the interval transition
//     probabilities S_{a,b}(t) of the resulting killed death process have
//     closed forms.
//   - Completion probabilities P_i(n) (here G) are computed backward from
//     the ancestor constraint (exactly one active lineage at the top), and
//     the forward walk samples the number of events per interval weighted
//     by S·G, then places them by truncated-exponential inversion —
//     the backward-recursion/forward-walk scheme of §4.2.
//
// Because the draw is exactly proportional to the conditional prior
// restricted to the neighbourhood, the Generalized Metropolis-Hastings
// weights reduce to the data likelihoods alone (paper Eq. 29-31), and the
// serial Metropolis-Hastings acceptance ratio reduces to the data
// likelihood ratio (Eq. 28).
//
// A draw has two halves. The region analysis — the interval cut, the k_in
// sweep, the interval transition probabilities and the backward
// completion recursion — depends only on the current tree, the target and
// θ. The forward walk and tree surgery consume the random stream. A
// Scratch holds the analysis (Scratch.Analyze), and Scratch.Sample then
// only reads it, so the multiple-proposal kernel analyses a round's shared
// neighbourhood once and samples every proposal from it concurrently, one
// PRNG stream per proposal. ResimulateScratch is the two halves back to
// back for single-proposal chains; Resimulate without a Scratch borrows
// one from a shared pool.
package resim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// maxActive is the largest possible number of active lineages: the three
// dangling children minus completed merges.
const maxActive = 3

// PickTarget samples the auxiliary variable φ: a uniform choice among the
// non-root interior nodes. Their count is always NTips-2, independent of
// topology, which keeps φ's distribution uniform over a set of fixed size
// (§4.3). It panics for trees with fewer than 3 tips, which have no
// resimulatable neighbourhood. It walks the interior nodes instead of
// materializing the eligible set: the sampler calls it once per round and
// the hot path stays allocation-free.
func PickTarget(t *gtree.Tree, src rng.Source) int {
	n := t.NInterior() - 1
	if n <= 0 {
		panic("resim: tree has no resimulatable target (need >= 3 tips)")
	}
	r := rng.Intn(src, n)
	for k := 0; k < t.NInterior(); k++ {
		i := t.InteriorIndex(k)
		if i == t.Root {
			continue
		}
		if r == 0 {
			return i
		}
		r--
	}
	panic("resim: internal error: target index out of range")
}

// Scratch is the reusable working memory of one resimulation region: the
// boundary, killing-rate, transition and completion-probability buffers
// the region analysis fills, owned by the caller so repeated draws
// allocate nothing.
//
// Analyze writes the Scratch and must not run concurrently with anything
// else on it. After a successful Analyze, Sample only reads the Scratch:
// any number of goroutines may call Sample at once, each on its own copy
// of the analysed tree and with its own PRNG stream, until the next
// Analyze.
type Scratch struct {
	r region
}

// NewScratch returns an empty Scratch. Buffers grow on first use to the
// size the tree's regions demand and are reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs Resimulate calls made without an explicit Scratch, so
// legacy call sites stay cheap without carrying one around.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Resimulate redraws the neighbourhood around target from the conditional
// coalescent prior with parameter theta, modifying t in place, using a
// pooled Scratch. See ResimulateScratch for the allocation-free form.
func Resimulate(t *gtree.Tree, target int, theta float64, src rng.Source) error {
	s := scratchPool.Get().(*Scratch)
	err := ResimulateScratch(t, target, theta, src, s)
	scratchPool.Put(s)
	return err
}

// ResimulateScratch is Resimulate with caller-owned working memory: with a
// warm Scratch the draw performs no heap allocation. It is Analyze
// followed by Sample on the same tree. The target must be a non-root
// interior node. The two replacement coalescent events reuse the node
// slots of the target and its parent (younger event in the target's
// slot), so node indices remain stable identities across proposals. A nil
// scratch allocates a fresh one.
//
//mpcgs:hotpath
func ResimulateScratch(t *gtree.Tree, target int, theta float64, src rng.Source, s *Scratch) error {
	if s == nil {
		s = NewScratch() //mpcgsvet:ignore-alloc nil-scratch fallback for legacy callers; hot callers pass a warm Scratch
	}
	if err := s.Analyze(t, target, theta); err != nil {
		return err
	}
	return s.Sample(t, src)
}

// Analyze validates the draw and analyses the region around target in t
// at theta into s. It reads t and consumes no randomness; on error the
// Scratch holds no analysis and Sample refuses to run.
//
//mpcgs:hotpath
func (s *Scratch) Analyze(t *gtree.Tree, target int, theta float64) error {
	s.r.ready = false
	if theta <= 0 {
		return fmt.Errorf("resim: theta %v must be positive", theta)
	}
	// The region's largest rate is λ_3 = 3·(2+2·k_in)/θ with k_in below
	// the tip count; once it overflows, every transition probability is
	// NaN or infinite and no draw exists.
	if maxRate := float64(maxActive*(maxActive-1+2*t.NTips())) / theta; math.IsInf(maxRate, 0) {
		return fmt.Errorf("resim: theta %v too small: coalescent rates overflow", theta)
	}
	if target < 0 || target >= t.NNodes() {
		return fmt.Errorf("resim: target %d out of range", target)
	}
	if t.IsTip(target) {
		return fmt.Errorf("resim: target %d is a tip", target)
	}
	if target == t.Root {
		return fmt.Errorf("resim: target %d is the root", target)
	}

	parent := t.Nodes[target].Parent
	ancestor := t.Nodes[parent].Parent // gtree.Nil when parent is the root
	children := [3]int{
		t.Nodes[target].Child[0],
		t.Nodes[target].Child[1],
		t.Sibling(target),
	}
	if err := s.r.build(t, target, parent, ancestor, children, theta); err != nil {
		return err
	}
	s.r.ready = true
	return nil
}

// Sample draws the analysed neighbourhood into t from src: the forward
// walk over the analysed intervals and the tree surgery. t must hold the
// tree the last Analyze saw, at least around the target; Sample checks the
// target's parent, the ancestor, the three children and their ages, and
// refuses a tree that differs. It only reads s (see Scratch).
//
//mpcgs:hotpath
func (s *Scratch) Sample(t *gtree.Tree, src rng.Source) error {
	r := &s.r
	if !r.ready {
		return fmt.Errorf("resim: Sample without a successful Analyze")
	}
	if !r.matches(t) {
		return fmt.Errorf("resim: neighbourhood of target %d differs from the analysed tree", r.target)
	}
	return r.sample(t, src)
}

// region is the fully analyzed resimulation problem: interval structure,
// killing rates, joins, transition and completion probabilities. Its slice
// fields live in a Scratch and are rebuilt in place by every Analyze.
type region struct {
	ready    bool // a successful Analyze filled the fields below
	theta    float64
	nTips    int
	target   int
	parent   int
	ancestor int // gtree.Nil for the root-adjacent case
	children [3]int
	// childAge and top are the ages the analysis was cut at: the three
	// children's and the ancestor's (+Inf in the root-adjacent case).
	childAge [3]float64
	top      float64

	bounds []float64 // m+1 boundary ages, bounds[0] = youngest child age
	kin    []int     // m per-interval inactive lineage counts
	joinAt [3]int    // boundary index at which each child becomes active
	g      [][4]float64
	// trs[j] holds interval j's rates and probs[j][a][b] its transition
	// probability S_{a,b}(L_j), shared by the completion recursion and
	// the forward walk.
	trs   []transitions
	probs []transTable
}

func (r *region) rootCase() bool { return r.ancestor == gtree.Nil }

// joinCount returns how many of the three children join the active set at
// boundary j.
func (r *region) joinCount(j int) int {
	n := 0
	for _, at := range r.joinAt {
		if at == j {
			n++
		}
	}
	return n
}

// build analyzes the resimulation region into r, reusing r's buffers.
func (r *region) build(t *gtree.Tree, target, parent, ancestor int, children [3]int, theta float64) error {
	r.theta, r.target, r.parent, r.ancestor = theta, target, parent, ancestor
	r.nTips = t.NTips()
	r.children = children
	for k, c := range children {
		r.childAge[k] = t.Nodes[c].Age
	}

	// Region bottom: the youngest child's age; top: the ancestor's age,
	// or unbounded for the root-adjacent case.
	bottom := math.Inf(1)
	for _, c := range children {
		if a := t.Nodes[c].Age; a < bottom {
			bottom = a
		}
	}
	top := math.Inf(1)
	if !r.rootCase() {
		top = t.Nodes[ancestor].Age
		if top <= bottom {
			return fmt.Errorf("resim: ancestor age %v not above region bottom %v", top, bottom)
		}
	}
	r.top = top

	// Boundary ages: the bottom plus every fixed node age strictly inside
	// (bottom, top) — collected, sorted, and deduplicated in place — plus
	// the top when the region is bounded. Ages equal to top fold into top.
	b := append(r.bounds[:0], bottom)
	for i := range t.Nodes {
		if i == target || i == parent {
			continue
		}
		if a := t.Nodes[i].Age; a > bottom && a < top {
			b = append(b, a)
		}
	}
	sort.Float64s(b)
	w := 1
	for i := 1; i < len(b); i++ {
		if b[i] != b[w-1] {
			b[w] = b[i]
			w++
		}
	}
	b = b[:w]
	if !r.rootCase() {
		b = append(b, top)
	}
	r.bounds = b

	// Joins: the boundary at which each child enters the active set.
	for k, c := range children {
		age := t.Nodes[c].Age
		j := sort.SearchFloat64s(r.bounds, age)
		if j >= len(r.bounds) || r.bounds[j] != age {
			return fmt.Errorf("resim: internal error: child age %v is not a boundary", age)
		}
		r.joinAt[k] = j
	}
	if r.joinCount(0) == 0 {
		return fmt.Errorf("resim: internal error: no child at region bottom")
	}

	// Inactive lineage count per interval: fixed branches crossing the
	// interval. A fixed branch belongs to a node that is neither removed
	// ({target, parent}) nor an active child, whose parent is also not
	// removed. Every fixed age inside the region is a boundary, so a
	// branch [age(i), age(parent)) covers exactly the intervals between
	// its endpoints' boundary positions; one difference-array sweep over
	// the branches replaces the per-interval rescan (O(n log m) instead
	// of O(n·m) per draw, the dominant region-analysis cost on big trees).
	m := len(r.bounds) - 1
	if cap(r.kin) < m {
		r.kin = make([]int, m) //mpcgsvet:ignore-alloc cap-guarded scratch growth, amortized over the run
	} else {
		r.kin = r.kin[:m]
	}
	for j := range r.kin {
		r.kin[j] = 0
	}
	for i := range t.Nodes {
		if i == target || i == parent || i == children[0] || i == children[1] || i == children[2] {
			continue
		}
		p := t.Nodes[i].Parent
		if p == gtree.Nil || p == target || p == parent {
			continue
		}
		lo := sort.SearchFloat64s(r.bounds, t.Nodes[i].Age)
		hi := sort.SearchFloat64s(r.bounds, t.Nodes[p].Age)
		if hi > m {
			hi = m
		}
		if lo >= hi {
			continue
		}
		r.kin[lo]++
		if hi < m {
			r.kin[hi]--
		}
	}
	for j := 1; j < m; j++ {
		r.kin[j] += r.kin[j-1]
	}

	r.computeCompletion()
	return nil
}

// computeCompletion fills g[j][a], the probability of completing the walk
// successfully when entering interval j with a active lineages (after the
// joins at boundary j): the backward recursion over feasible intervals of
// §4.2, with per-level normalization to guard against underflow on long
// regions (only ratios matter for the forward sampling). Each interval's
// rates and transition probabilities are kept in trs and probs for the
// forward walk.
func (r *region) computeCompletion() {
	m := len(r.bounds) - 1
	if cap(r.g) < m+1 {
		r.g = make([][4]float64, m+1)
		r.trs = make([]transitions, m)
		r.probs = make([]transTable, m)
	} else {
		r.g = r.g[:m+1]
		r.trs = r.trs[:m]
		r.probs = r.probs[:m]
	}
	r.g[m] = [4]float64{}
	if r.rootCase() {
		// Above the last boundary there are no inactive lineages and no
		// killing: the pure death process reaches one lineage with
		// certainty.
		for a := 1; a <= maxActive; a++ {
			r.g[m][a] = 1
		}
	} else {
		// The single remaining lineage attaches to the ancestor.
		r.g[m][1] = 1
	}
	for j := m - 1; j >= 0; j-- {
		r.trs[j] = newTransitions(r.kin[j], r.theta)
		r.probs[j] = r.trs[j].table(r.bounds[j+1] - r.bounds[j])
		p := &r.probs[j]
		nj := r.joinCount(j + 1)
		maxv := 0.0
		for a := 1; a <= maxActive; a++ {
			sum := 0.0
			for b := 1; b <= a; b++ {
				next := b + nj
				if next > maxActive {
					continue
				}
				sum += p[a][b] * r.g[j+1][next]
			}
			r.g[j][a] = sum
			if sum > maxv {
				maxv = sum
			}
		}
		if maxv > 0 && maxv < 1e-280 {
			inv := 1 / maxv
			for a := 1; a <= maxActive; a++ {
				r.g[j][a] *= inv
			}
		}
	}
}

// matches reports whether t's neighbourhood of the analysed target is the
// one the analysis was cut from: same tip count, parent, ancestor,
// children and child and ancestor ages.
func (r *region) matches(t *gtree.Tree) bool {
	if t.NTips() != r.nTips {
		return false
	}
	nd := &t.Nodes[r.target]
	if nd.Parent != r.parent || nd.Child[0] != r.children[0] || nd.Child[1] != r.children[1] ||
		t.Nodes[r.parent].Parent != r.ancestor || t.Sibling(r.target) != r.children[2] {
		return false
	}
	for k, c := range r.children {
		if t.Nodes[c].Age != r.childAge[k] {
			return false
		}
	}
	return r.rootCase() || t.Nodes[r.ancestor].Age == r.top
}

// mergeWalk is the forward walk's mutable state: the active lineage set
// (at most three entries, so it lives on the stack) and the two node slots
// the replacement coalescent events are written into.
type mergeWalk struct {
	active [maxActive]int
	n      int
	slots  [2]int
	next   int
}

// push appends a lineage to the active set.
func (w *mergeWalk) push(node int) {
	w.active[w.n] = node
	w.n++
}

// merge draws a uniform active pair, coalesces it at the given age into
// the next free slot, and splices the tree accordingly.
func (w *mergeWalk) merge(t *gtree.Tree, age float64, src rng.Source) error {
	if w.next >= 2 {
		return fmt.Errorf("resim: internal error: more than two merge events")
	}
	i, j := rng.UniformPair(src, w.n)
	slot := w.slots[w.next]
	w.next++
	a, b := w.active[i], w.active[j]
	t.Nodes[slot].Child = [2]int{a, b}
	t.Nodes[slot].Age = age
	t.Nodes[a].Parent = slot
	t.Nodes[b].Parent = slot
	w.active[i] = slot
	copy(w.active[j:w.n-1], w.active[j+1:w.n])
	w.n--
	return nil
}

// sample runs the conditioned forward walk and performs the tree surgery.
func (r *region) sample(t *gtree.Tree, src rng.Source) error {
	m := len(r.bounds) - 1
	var walk mergeWalk
	walk.slots = [2]int{r.target, r.parent}
	for k, c := range r.children {
		if r.joinAt[k] == 0 {
			walk.push(c)
		}
	}
	if walk.n == 0 {
		return fmt.Errorf("resim: internal error: no child at region bottom")
	}

	for j := 0; j < m; j++ {
		L := r.bounds[j+1] - r.bounds[j]
		tr := &r.trs[j]
		a := walk.n
		nj := r.joinCount(j + 1)

		// Choose the exit state weighted by transition x completion.
		var weights [maxActive + 1]float64
		total := 0.0
		for b := 1; b <= a; b++ {
			next := b + nj
			if next > maxActive {
				continue
			}
			w := r.probs[j][a][b] * r.g[j+1][next]
			weights[b] = w
			total += w
		}
		// !(total > 0) also catches NaN: rates near the float64 limit can
		// make a transition probability 0·Inf.
		if !(total > 0) || math.IsInf(total, 0) {
			return fmt.Errorf("resim: no feasible continuation in interval %d (theta %v too extreme for region)", j, r.theta)
		}
		b := -1
		x := src.Float64() * total
		acc := 0.0
		for cand := 1; cand <= a; cand++ {
			acc += weights[cand]
			if weights[cand] > 0 && x < acc {
				b = cand
				break
			}
		}
		if b < 0 {
			// Floating-point slack pushed x past the last bucket: take the
			// largest feasible exit state.
			for cand := a; cand >= 1; cand-- {
				if weights[cand] > 0 {
					b = cand
					break
				}
			}
		}
		if b < 0 {
			return fmt.Errorf("resim: no feasible exit state in interval %d (theta %v too extreme for region)", j, r.theta)
		}

		// Place the events inside the interval and apply them in age order.
		switch a - b {
		case 0:
		case 1:
			s := tr.placeOne(a, L, src)
			if err := walk.merge(t, r.bounds[j]+s, src); err != nil {
				return err
			}
		case 2:
			s1, s2 := tr.placeTwo(L, src)
			if err := walk.merge(t, r.bounds[j]+s1, src); err != nil {
				return err
			}
			if err := walk.merge(t, r.bounds[j]+s2, src); err != nil {
				return err
			}
		default:
			return fmt.Errorf("resim: internal error: %d events in one interval", a-b)
		}
		for k, c := range r.children {
			if r.joinAt[k] == j+1 {
				walk.push(c)
			}
		}
	}

	if r.rootCase() {
		// Unbounded tail above the last boundary: no inactive lineages,
		// plain exponential waits between the remaining merges.
		age := r.bounds[m]
		for walk.n > 1 {
			a := walk.n
			rate := float64(a*(a-1)) / r.theta
			age += rng.Exp(src, rate)
			if err := walk.merge(t, age, src); err != nil {
				return err
			}
		}
	}
	if walk.n != 1 {
		return fmt.Errorf("resim: internal error: %d active lineages at region top", walk.n)
	}
	if walk.next != 2 {
		return fmt.Errorf("resim: internal error: %d merges performed, want 2", walk.next)
	}
	// The final merge landed in the parent slot, which the ancestor (or
	// the root marker) already references; only the upward link needs
	// restating.
	if walk.active[0] != r.parent {
		return fmt.Errorf("resim: internal error: final lineage %d is not the parent slot %d", walk.active[0], r.parent)
	}
	if r.rootCase() {
		t.Nodes[r.parent].Parent = gtree.Nil
		t.Root = r.parent
	} else {
		t.Nodes[r.parent].Parent = r.ancestor
	}
	return nil
}
