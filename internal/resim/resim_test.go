package resim

import (
	"math"
	"strings"
	"testing"

	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
)

// ladderTree builds the caterpillar genealogy used by the sharp
// distribution tests: tips a,b,c,d at age 0, (a,b) at age 1, ((a,b),c) at
// age 2, root at age 3.
func ladderTree(t *testing.T) *gtree.Tree {
	t.Helper()
	tr := gtree.New(4)
	for i, n := range []string{"a", "b", "c", "d"} {
		tr.Nodes[i].Name = n
	}
	link := func(p int, age float64, c0, c1 int) {
		tr.Nodes[p].Age = age
		tr.Nodes[p].Child = [2]int{c0, c1}
		tr.Nodes[c0].Parent = p
		tr.Nodes[c1].Parent = p
	}
	link(4, 1, 0, 1)
	link(5, 2, 4, 2)
	link(6, 3, 5, 3)
	tr.Root = 6
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestResimulateErrors(t *testing.T) {
	scratch := NewScratch()
	tr := ladderTree(t)
	src := rng.NewMT19937(400)
	if err := ResimulateScratch(tr, 0, 1.0, src, scratch); err == nil {
		t.Error("tip target accepted")
	}
	if err := ResimulateScratch(tr, tr.Root, 1.0, src, scratch); err == nil {
		t.Error("root target accepted")
	}
	if err := ResimulateScratch(tr, 99, 1.0, src, scratch); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := ResimulateScratch(tr, 4, 0, src, scratch); err == nil {
		t.Error("theta=0 accepted")
	}
	if err := ResimulateScratch(tr, 4, -1, src, scratch); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestResimulateStructure(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(401)
	base := ladderTree(t)
	for trial := 0; trial < 500; trial++ {
		tr := base.Clone()
		target := PickTarget(tr, src)
		if err := ResimulateScratch(tr, target, 1.0, src, scratch); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d (target %d): invalid proposal: %v\n%s", trial, target, err, tr)
		}
	}
}

// TestResimulateFixedPartUntouched verifies that only the neighbourhood
// changes: every node other than the target, its parent, and the upward
// links of the three children keeps its age, name, children and parent.
func TestResimulateFixedPartUntouched(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(402)
	base := ladderTree(t)
	for trial := 0; trial < 200; trial++ {
		tr := base.Clone()
		target := PickTarget(tr, src)
		parent := tr.Nodes[target].Parent
		children := map[int]bool{
			tr.Nodes[target].Child[0]: true,
			tr.Nodes[target].Child[1]: true,
			tr.Sibling(target):        true,
		}
		if err := ResimulateScratch(tr, target, 1.0, src, scratch); err != nil {
			t.Fatal(err)
		}
		for i := range tr.Nodes {
			if i == target || i == parent {
				continue
			}
			if tr.Nodes[i].Age != base.Nodes[i].Age {
				t.Fatalf("trial %d: fixed node %d age changed", trial, i)
			}
			if tr.Nodes[i].Name != base.Nodes[i].Name {
				t.Fatalf("trial %d: fixed node %d name changed", trial, i)
			}
			if tr.Nodes[i].Child != base.Nodes[i].Child {
				t.Fatalf("trial %d: fixed node %d children changed", trial, i)
			}
			if !children[i] && tr.Nodes[i].Parent != base.Nodes[i].Parent {
				t.Fatalf("trial %d: non-child fixed node %d parent changed", trial, i)
			}
		}
	}
}

func TestResimulateDeterministic(t *testing.T) {
	scratch := NewScratch()
	base := ladderTree(t)
	a, b := base.Clone(), base.Clone()
	if err := ResimulateScratch(a, 4, 1.0, rng.NewMT19937(77), scratch); err != nil {
		t.Fatal(err)
	}
	if err := ResimulateScratch(b, 4, 1.0, rng.NewMT19937(77), scratch); err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("same-seed proposals differ at node %d", i)
		}
	}
}

// TestResimulateConditionalDensity is the sharp correctness test of the
// killing machinery. Target node 4 of the ladder tree leaves children
// {a,b,c} (all age 0), ancestor at age 3, and exactly one fixed lineage
// (tip d) across the whole region, so the conditional prior of the two
// event ages (s1 < s2) is proportional to e^{-α s1 - β s2} with
// α = (λ3-λ2) and β = (λ2-λ1) computed WITH the cross-coalescence terms
// (k_in = 1). The empirical means must match numerical integration, and
// the first merge must pair the three children uniformly.
func TestResimulateConditionalDensity(t *testing.T) {
	scratch := NewScratch()
	theta := 2.0
	tr0 := ladderTree(t)
	src := rng.NewMT19937(403)

	trans := newTransitions(1, theta)
	alpha := trans.lambda[3] - trans.lambda[2]
	beta := trans.lambda[2] - trans.lambda[1]
	L := 3.0
	const grid = 900
	h := L / grid
	var z, m1, m2 float64
	for i := 0; i < grid; i++ {
		s1 := (float64(i) + 0.5) * h
		for j := i; j < grid; j++ {
			s2 := (float64(j) + 0.5) * h
			w := math.Exp(-alpha*s1 - beta*s2)
			z += w
			m1 += w * s1
			m2 += w * s2
		}
	}
	wantS1, wantS2 := m1/z, m2/z

	const reps = 60000
	var sum1, sum2 float64
	pairCounts := map[[2]int]int{}
	for r := 0; r < reps; r++ {
		tr := tr0.Clone()
		if err := ResimulateScratch(tr, 4, theta, src, scratch); err != nil {
			t.Fatal(err)
		}
		// Slot 4 holds the younger event, slot 5 the older.
		s1 := tr.Nodes[4].Age
		s2 := tr.Nodes[5].Age
		if !(0 < s1 && s1 < s2 && s2 < 3) {
			t.Fatalf("event ages out of region: %v %v", s1, s2)
		}
		sum1 += s1
		sum2 += s2
		c := tr.Nodes[4].Child
		lo, hi := c[0], c[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		pairCounts[[2]int{lo, hi}]++
	}
	got1, got2 := sum1/reps, sum2/reps
	if math.Abs(got1-wantS1) > 0.02 {
		t.Errorf("E[s1] = %v, want %v (killing terms mishandled?)", got1, wantS1)
	}
	if math.Abs(got2-wantS2) > 0.02 {
		t.Errorf("E[s2] = %v, want %v", got2, wantS2)
	}
	if len(pairCounts) != 3 {
		t.Fatalf("first merge pairs = %v, want all 3 child pairs", pairCounts)
	}
	for p, c := range pairCounts {
		f := float64(c) / reps
		if math.Abs(f-1.0/3) > 0.01 {
			t.Errorf("pair %v frequency %v, want 1/3", p, f)
		}
	}
}

// TestPriorChainKingman runs the Gibbs-like chain that resimulates a
// random neighbourhood each step with no data (always accept): its
// stationary distribution is the coalescent prior, so interval duration
// means must converge to Kingman's E[t_k] = θ/(k(k-1)) and the tree height
// to θ(1-1/n). This exercises joins, multi-interval regions, the
// completion recursion and the root-adjacent case together.
func TestPriorChainKingman(t *testing.T) {
	scratch := NewScratch()
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	src := rng.NewMT19937(404)
	theta := 1.0
	names := []string{"a", "b", "c", "d", "e"}
	tr, err := gtree.RandomCoalescent(names, theta, src)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.NTips()
	const steps = 60000
	const burn = 2000
	sums := make([]float64, n-1)
	heightSum := 0.0
	count := 0
	for s := 0; s < steps; s++ {
		target := PickTarget(tr, src)
		if err := ResimulateScratch(tr, target, theta, src, scratch); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if s < burn {
			continue
		}
		for i, d := range tr.IntervalDurations() {
			sums[i] += d
		}
		heightSum += tr.Height()
		count++
	}
	for i := 0; i < n-1; i++ {
		k := n - i
		got := sums[i] / float64(count)
		want := theta / float64(k*(k-1))
		if math.Abs(got-want) > 0.08*want {
			t.Errorf("E[t_%d] = %v, want %v (±8%%)", k, got, want)
		}
	}
	wantHeight := theta * (1 - 1/float64(n))
	gotHeight := heightSum / float64(count)
	if math.Abs(gotHeight-wantHeight) > 0.05*wantHeight {
		t.Errorf("E[height] = %v, want %v (±5%%)", gotHeight, wantHeight)
	}
}

// TestPriorChainRootCaseOnly uses n=3, where the single eligible target's
// parent is always the root: every proposal is an independent draw of the
// whole genealogy from the prior through the root-adjacent path.
func TestPriorChainRootCaseOnly(t *testing.T) {
	scratch := NewScratch()
	if testing.Short() {
		t.Skip("statistical chain test")
	}
	src := rng.NewMT19937(405)
	theta := 2.0
	tr, err := gtree.RandomCoalescent([]string{"a", "b", "c"}, theta, src)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40000
	sums := [2]float64{}
	cherry := map[string]int{}
	for s := 0; s < steps; s++ {
		if err := ResimulateScratch(tr, PickTarget(tr, src), theta, src, scratch); err != nil {
			t.Fatal(err)
		}
		d := tr.IntervalDurations()
		sums[0] += d[0]
		sums[1] += d[1]
		// The cherry: the pair coalescing first.
		first := tr.InteriorIndex(0)
		if tr.Nodes[tr.InteriorIndex(1)].Age < tr.Nodes[first].Age {
			first = tr.InteriorIndex(1)
		}
		c := tr.Nodes[first].Child
		a, b := tr.Nodes[c[0]].Name, tr.Nodes[c[1]].Name
		if a > b {
			a, b = b, a
		}
		cherry[a+b]++
	}
	// E[t_3] = θ/6, E[t_2] = θ/2.
	if got, want := sums[0]/steps, theta/6; math.Abs(got-want) > 0.05*want {
		t.Errorf("E[t_3] = %v, want %v", got, want)
	}
	if got, want := sums[1]/steps, theta/2; math.Abs(got-want) > 0.05*want {
		t.Errorf("E[t_2] = %v, want %v", got, want)
	}
	// Each pair equally likely to be the cherry under Kingman.
	for pair, c := range cherry {
		f := float64(c) / steps
		if math.Abs(f-1.0/3) > 0.02 {
			t.Errorf("cherry %q frequency %v, want 1/3", pair, f)
		}
	}
}

// TestPriorChainTopologyMixing verifies the chain changes tree topology,
// not just node ages: across many steps, the sibling of tip a must vary.
func TestPriorChainTopologyMixing(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(406)
	tr, err := gtree.RandomCoalescent([]string{"a", "b", "c", "d"}, 1.0, src)
	if err != nil {
		t.Fatal(err)
	}
	siblings := map[int]bool{}
	for s := 0; s < 2000; s++ {
		if err := ResimulateScratch(tr, PickTarget(tr, src), 1.0, src, scratch); err != nil {
			t.Fatal(err)
		}
		siblings[tr.Sibling(0)] = true
	}
	if len(siblings) < 3 {
		t.Errorf("tip a saw only siblings %v; topology is not mixing", siblings)
	}
}

// TestResimulateManyShapes stress-tests structural validity over larger
// random trees and a range of theta values, covering regions with many
// feasible intervals and varying k_in.
func TestResimulateManyShapes(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(407)
	for _, n := range []int{3, 4, 6, 10, 20} {
		names := make([]string, n)
		for i := range names {
			names[i] = "t" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		for _, theta := range []float64{0.05, 1.0, 10.0} {
			tr, err := gtree.RandomCoalescent(names, 1.0, src)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 100; trial++ {
				if err := ResimulateScratch(tr, PickTarget(tr, src), theta, src, scratch); err != nil {
					t.Fatalf("n=%d theta=%v trial %d: %v", n, theta, trial, err)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("n=%d theta=%v trial %d: %v", n, theta, trial, err)
				}
			}
		}
	}
}

// TestResimulateSlotConvention verifies the documented slot reuse: the
// younger replacement event sits in the target's slot, the older in the
// parent's, and the parent slot keeps its upward attachment.
func TestResimulateSlotConvention(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(408)
	base := ladderTree(t)
	for trial := 0; trial < 300; trial++ {
		tr := base.Clone()
		target := PickTarget(tr, src)
		parent := tr.Nodes[target].Parent
		ancestor := tr.Nodes[parent].Parent
		if err := ResimulateScratch(tr, target, 1.0, src, scratch); err != nil {
			t.Fatal(err)
		}
		if tr.Nodes[target].Age >= tr.Nodes[parent].Age {
			t.Fatalf("trial %d: target slot age %v not below parent slot age %v",
				trial, tr.Nodes[target].Age, tr.Nodes[parent].Age)
		}
		if tr.Nodes[target].Parent != parent {
			t.Fatalf("trial %d: target slot's parent = %d, want %d", trial, tr.Nodes[target].Parent, parent)
		}
		if tr.Nodes[parent].Parent != ancestor {
			t.Fatalf("trial %d: parent slot's parent = %d, want %d", trial, tr.Nodes[parent].Parent, ancestor)
		}
	}
}

// TestResimulateTinyTheta is the regression test for a panic: at θ =
// 1e-308 the coalescent rates overflowed to +Inf, the interval weights
// became NaN, no exit state was chosen and the forward walk merged a
// single lineage (rng.UniformPair with n < 2). Every θ down to the
// smallest subnormal must now give an error or a valid tree, and θ
// whose rates overflow must be refused up front.
func TestResimulateTinyTheta(t *testing.T) {
	scratch := NewScratch()
	src := rng.NewMT19937(408)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, theta := range []float64{1e-150, 1e-200, 1e-305, 1e-308, 5e-324} {
		for _, scale := range []float64{1, theta} {
			tr, err := gtree.RandomCoalescent(names, scale, src)
			if err != nil {
				if scale == 1 {
					t.Fatal(err)
				}
				continue // ages this small underflow: no such tree exists
			}
			for trial := 0; trial < 50; trial++ {
				err := ResimulateScratch(tr, PickTarget(tr, src), theta, src, scratch)
				if err == nil {
					if err := tr.Validate(); err != nil {
						t.Fatalf("theta=%v tree scale %v trial %d: %v", theta, scale, trial, err)
					}
				}
				if theta <= 1e-308 && (err == nil || !strings.Contains(err.Error(), "coalescent rates overflow")) {
					t.Fatalf("theta=%v: got %v, want the rate-overflow refusal", theta, err)
				}
			}
		}
	}
}
