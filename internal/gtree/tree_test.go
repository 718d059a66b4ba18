package gtree

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mpcgs/internal/newick"
	"mpcgs/internal/rng"
)

// fourTipTree builds the hand-checked genealogy
//
//	((a:1,b:1):2,(c:2,d:2):1);  ages: n4=1, n5=2, n6(root)=3
func fourTipTree(t *testing.T) *Tree {
	t.Helper()
	tr := New(4)
	names := []string{"a", "b", "c", "d"}
	for i, n := range names {
		tr.Nodes[i].Name = n
	}
	link := func(p int, age float64, c0, c1 int) {
		tr.Nodes[p].Age = age
		tr.Nodes[p].Child = [2]int{c0, c1}
		tr.Nodes[c0].Parent = p
		tr.Nodes[c1].Parent = p
	}
	link(4, 1, 0, 1)
	link(5, 2, 2, 3)
	link(6, 3, 4, 5)
	tr.Root = 6
	if err := tr.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return tr
}

func TestValidateAcceptsFixture(t *testing.T) { fourTipTree(t) }

func TestValidateRejections(t *testing.T) {
	breakers := map[string]func(*Tree){
		"root is tip":        func(tr *Tree) { tr.Root = 0 },
		"root has parent":    func(tr *Tree) { tr.Nodes[6].Parent = 4 },
		"tip with children":  func(tr *Tree) { tr.Nodes[0].Child = [2]int{1, 2} },
		"tip nonzero age":    func(tr *Tree) { tr.Nodes[0].Age = 0.5 },
		"tip without name":   func(tr *Tree) { tr.Nodes[1].Name = "" },
		"missing child":      func(tr *Tree) { tr.Nodes[4].Child[1] = Nil },
		"duplicate child":    func(tr *Tree) { tr.Nodes[4].Child = [2]int{0, 0} },
		"bad back pointer":   func(tr *Tree) { tr.Nodes[0].Parent = 5 },
		"age inversion":      func(tr *Tree) { tr.Nodes[4].Age = 5 },
		"equal ages":         func(tr *Tree) { tr.Nodes[4].Age = 3; tr.Nodes[5].Age = 3 },
		"nan age":            func(tr *Tree) { tr.Nodes[6].Age = math.NaN() },
		"child out of range": func(tr *Tree) { tr.Nodes[4].Child[0] = 99 },
	}
	for label, breaker := range breakers {
		tr := fourTipTree(t)
		breaker(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken tree", label)
		}
	}
}

func TestPostOrderVisitsChildrenFirst(t *testing.T) {
	tr := fourTipTree(t)
	pos := map[int]int{}
	order := 0
	tr.PostOrder(func(i int) {
		pos[i] = order
		order++
	})
	if order != 7 {
		t.Fatalf("visited %d nodes, want 7", order)
	}
	for i := 4; i <= 6; i++ {
		for _, c := range tr.Nodes[i].Child {
			if pos[c] >= pos[i] {
				t.Errorf("child %d visited at %d, after parent %d at %d", c, pos[c], i, pos[i])
			}
		}
	}
}

func TestCoalescentAges(t *testing.T) {
	tr := fourTipTree(t)
	got := tr.CoalescentAges()
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ages[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIntervalDurations(t *testing.T) {
	tr := fourTipTree(t)
	got := tr.IntervalDurations()
	want := []float64{1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("durations[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSumKKT(t *testing.T) {
	tr := fourTipTree(t)
	// k=4 during [0,1): 12; k=3 during [1,2): 6; k=2 during [2,3): 2.
	if got, want := tr.SumKKT(), 12.0+6+2; got != want {
		t.Errorf("SumKKT = %v, want %v", got, want)
	}
}

func TestSumKKTMatchesLineageIntegral(t *testing.T) {
	// Property: S equals the integral of k(t)(k(t)-1) dt computed from
	// LineagesAt over a fine partition of the tree height.
	src := rng.NewMT19937(77)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(src, 8)
		names := make([]string, n)
		for i := range names {
			names[i] = "t" + string(rune('a'+i))
		}
		tr, err := RandomCoalescent(names, 1.5, src)
		if err != nil {
			t.Fatal(err)
		}
		ages := tr.CoalescentAges()
		integral := 0.0
		prev := 0.0
		for _, a := range ages {
			mid := (prev + a) / 2
			k := tr.LineagesAt(mid)
			integral += float64(k*(k-1)) * (a - prev)
			prev = a
		}
		if math.Abs(integral-tr.SumKKT()) > 1e-9*math.Max(1, tr.SumKKT()) {
			t.Fatalf("trial %d: integral %v != SumKKT %v", trial, integral, tr.SumKKT())
		}
	}
}

func TestLineagesAt(t *testing.T) {
	tr := fourTipTree(t)
	cases := []struct {
		x    float64
		want int
	}{
		{0, 4}, {0.5, 4}, {1, 3}, {1.5, 3}, {2, 2}, {2.5, 2}, {3, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := tr.LineagesAt(c.x); got != c.want {
			t.Errorf("LineagesAt(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestSibling(t *testing.T) {
	tr := fourTipTree(t)
	if s := tr.Sibling(0); s != 1 {
		t.Errorf("Sibling(0) = %d, want 1", s)
	}
	if s := tr.Sibling(4); s != 5 {
		t.Errorf("Sibling(4) = %d, want 5", s)
	}
	if s := tr.Sibling(6); s != Nil {
		t.Errorf("Sibling(root) = %d, want Nil", s)
	}
}

func TestBranchLength(t *testing.T) {
	tr := fourTipTree(t)
	if l := tr.BranchLength(4); l != 2 {
		t.Errorf("BranchLength(4) = %v, want 2", l)
	}
	defer func() {
		if recover() == nil {
			t.Error("BranchLength(root) should panic")
		}
	}()
	tr.BranchLength(6)
}

func TestCloneIndependence(t *testing.T) {
	tr := fourTipTree(t)
	c := tr.Clone()
	c.Nodes[4].Age = 1.7
	if tr.Nodes[4].Age != 1 {
		t.Error("Clone shares state with original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestCopyFrom(t *testing.T) {
	tr := fourTipTree(t)
	dst := New(4)
	dst.CopyFrom(tr)
	if err := dst.Validate(); err != nil {
		t.Fatalf("CopyFrom result invalid: %v", err)
	}
	dst.Nodes[5].Age = 2.5
	if tr.Nodes[5].Age != 2 {
		t.Error("CopyFrom shares state")
	}
}

func TestScale(t *testing.T) {
	tr := fourTipTree(t)
	tr.Scale(2)
	if tr.Height() != 6 {
		t.Errorf("Height after Scale = %v, want 6", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("scaled tree invalid: %v", err)
	}
}

func TestUPGMAHandComputed(t *testing.T) {
	// Distances: a-b=2, a-c=6, b-c=6 -> join (a,b) at height 1; then
	// cluster ab to c at mean distance 6 -> root at height 3.
	d := [][]float64{
		{0, 2, 6},
		{2, 0, 6},
		{6, 6, 0},
	}
	tr, err := UPGMA(d, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	ages := tr.CoalescentAges()
	if math.Abs(ages[0]-1) > 1e-12 || math.Abs(ages[1]-3) > 1e-12 {
		t.Errorf("ages = %v, want [1 3]", ages)
	}
	// a and b must be siblings.
	if tr.Sibling(0) != 1 {
		t.Errorf("a's sibling = %d, want b(1)", tr.Sibling(0))
	}
}

func TestUPGMAWeightedMerge(t *testing.T) {
	// Four taxa where the size-weighted average matters: after joining
	// (a,b), distance from {a,b} to c is (d(a,c)+d(b,c))/2.
	d := [][]float64{
		{0, 2, 4, 10},
		{2, 0, 6, 10},
		{4, 6, 0, 10},
		{10, 10, 10, 0},
	}
	tr, err := UPGMA(d, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	ages := tr.CoalescentAges()
	// Join (a,b) at 1; {ab}-c mean = (4+6)/2 = 5 -> join at 2.5;
	// {abc}-d mean = 10 -> root at 5.
	want := []float64{1, 2.5, 5}
	for i := range want {
		if math.Abs(ages[i]-want[i]) > 1e-12 {
			t.Errorf("ages[%d] = %v, want %v", i, ages[i], want[i])
		}
	}
}

func TestUPGMAZeroDistances(t *testing.T) {
	// Identical sequences: all-zero distances must still give a valid
	// strictly ordered tree via tie-breaking.
	d := [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	tr, err := UPGMA(d, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("zero-distance UPGMA invalid: %v", err)
	}
}

func TestUPGMAErrors(t *testing.T) {
	if _, err := UPGMA([][]float64{{0}}, []string{"a"}); err == nil {
		t.Error("single taxon accepted")
	}
	if _, err := UPGMA([][]float64{{0, 1}, {2, 0}}, []string{"a", "b"}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := UPGMA([][]float64{{0, -1}, {-1, 0}}, []string{"a", "b"}); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := UPGMA([][]float64{{0, 1}, {1, 0}}, []string{"a"}); err == nil {
		t.Error("name count mismatch accepted")
	}
}

func TestRandomCoalescentValid(t *testing.T) {
	src := rng.NewMT19937(5)
	names := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 50; trial++ {
		tr, err := RandomCoalescent(names, 1.0, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandomCoalescentIntervalMeans(t *testing.T) {
	// E[t_k] = theta / (k(k-1)) per paper Eq. 17.
	src := rng.NewMT19937(6)
	names := []string{"a", "b", "c", "d"}
	theta := 2.0
	const reps = 20000
	sums := make([]float64, 3)
	for r := 0; r < reps; r++ {
		tr, err := RandomCoalescent(names, theta, src)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range tr.IntervalDurations() {
			sums[i] += d
		}
	}
	// Interval i has k = 4-i lineages.
	for i, k := range []int{4, 3, 2} {
		got := sums[i] / reps
		want := theta / float64(k*(k-1))
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("interval %d mean = %v, want %v (±5%%)", i, got, want)
		}
	}
}

func TestRandomCoalescentErrors(t *testing.T) {
	src := rng.NewMT19937(7)
	if _, err := RandomCoalescent([]string{"a"}, 1, src); err == nil {
		t.Error("single tip accepted")
	}
	if _, err := RandomCoalescent([]string{"a", "b"}, 0, src); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := RandomCoalescent([]string{"a", "b"}, -1, src); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestNewickRoundTrip(t *testing.T) {
	tr := fourTipTree(t)
	out := tr.String()
	parsed, err := newick.Parse(out)
	if err != nil {
		t.Fatalf("parse %q: %v", out, err)
	}
	back, err := FromNewick(parsed)
	if err != nil {
		t.Fatalf("FromNewick: %v", err)
	}
	if back.NTips() != 4 {
		t.Fatalf("NTips = %d, want 4", back.NTips())
	}
	a1, a2 := tr.CoalescentAges(), back.CoalescentAges()
	for i := range a1 {
		if math.Abs(a1[i]-a2[i]) > 1e-9 {
			t.Errorf("ages[%d]: %v != %v", i, a1[i], a2[i])
		}
	}
	if strings.Join(tr.TipNames(), ",") != strings.Join(back.TipNames(), ",") {
		t.Errorf("tip names changed: %v vs %v", tr.TipNames(), back.TipNames())
	}
}

func TestNewickRoundTripRandom(t *testing.T) {
	src := rng.NewMT19937(8)
	f := func(sizeRaw uint8) bool {
		n := 2 + int(sizeRaw)%10
		names := make([]string, n)
		for i := range names {
			names[i] = "s" + string(rune('A'+i))
		}
		tr, err := RandomCoalescent(names, 1.0, src)
		if err != nil {
			return false
		}
		parsed, err := newick.Parse(tr.String())
		if err != nil {
			return false
		}
		back, err := FromNewick(parsed)
		if err != nil {
			return false
		}
		if math.Abs(back.Height()-tr.Height()) > 1e-9*tr.Height() {
			return false
		}
		return math.Abs(back.SumKKT()-tr.SumKKT()) < 1e-9*math.Max(1, tr.SumKKT())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromNewickRejectsNonUltrametric(t *testing.T) {
	parsed, err := newick.Parse("(a:1,b:2);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNewick(parsed); err == nil {
		t.Error("non-ultrametric tree accepted")
	}
}

func TestFromNewickRejectsMultifurcation(t *testing.T) {
	parsed, err := newick.Parse("(a:1,b:1,c:1);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNewick(parsed); err == nil {
		t.Error("multifurcating tree accepted")
	}
}

func TestFromNewickRejectsMissingLengths(t *testing.T) {
	parsed, err := newick.Parse("((a,b),c);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNewick(parsed); err == nil {
		t.Error("tree without branch lengths accepted")
	}
}

func TestInteriorIndex(t *testing.T) {
	tr := fourTipTree(t)
	if tr.NInterior() != 3 {
		t.Fatalf("NInterior = %d, want 3", tr.NInterior())
	}
	for k := 0; k < tr.NInterior(); k++ {
		i := tr.InteriorIndex(k)
		if tr.IsTip(i) {
			t.Errorf("InteriorIndex(%d) = %d is a tip", k, i)
		}
	}
}

func TestNewPanicsOnTinyTree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1) should panic")
		}
	}()
	New(1)
}

// TestRandomCoalescentPinnedDraw pins one genealogy at a fixed seed: each
// interior node's children and the bits of its age. The distributional
// tests cannot see a reordered draw or a moved rounding; this one can.
func TestRandomCoalescentPinnedDraw(t *testing.T) {
	tr, err := RandomCoalescent([]string{"a", "b", "c", "d", "e", "f"}, 1.5, rng.NewMT19937(20160401))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		c0, c1 int
		age    uint64
	}{
		{0, 1, 0x3fa335eb02048f92},
		{3, 4, 0x3fb02a9425cffc94},
		{6, 2, 0x3fc680f8630b5343},
		{8, 7, 0x3fc9907cb9037ea8},
		{9, 5, 0x3fe1eec12aac3cba},
	}
	if tr.Root != 10 {
		t.Fatalf("root %d, want 10", tr.Root)
	}
	for i, w := range want {
		n := tr.Nodes[tr.NTips()+i]
		if n.Child != [2]int{w.c0, w.c1} || math.Float64bits(n.Age) != w.age {
			t.Errorf("node %d: children %v age %#016x, want [%d %d] %#016x",
				tr.NTips()+i, n.Child, math.Float64bits(n.Age), w.c0, w.c1, w.age)
		}
	}
}
