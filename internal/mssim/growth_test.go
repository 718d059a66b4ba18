package mssim

import (
	"math"
	"testing"

	"mpcgs/internal/rng"
)

func TestSimulateGrowthZeroGMatchesConstant(t *testing.T) {
	// g = 0 must delegate to the constant-size simulator: identical
	// output for identical generator state.
	names := TipNames(5)
	a, err := SimulateGrowth(names, 1.0, 0, rng.NewMT19937(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateGrowth(names, 1.0, 0, rng.NewMT19937(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("g=0 simulation not deterministic")
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSimulateGrowthValid(t *testing.T) {
	src := rng.NewMT19937(2)
	names := TipNames(8)
	for _, g := range []float64{0.5, 2, 10, 100} {
		for trial := 0; trial < 50; trial++ {
			tr, err := SimulateGrowth(names, 1.0, g, src)
			if err != nil {
				t.Fatalf("g=%v: %v", g, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("g=%v trial %d: %v", g, trial, err)
			}
		}
	}
}

func TestSimulateGrowthShrinksTrees(t *testing.T) {
	// Growth compresses deep coalescences: mean height under strong
	// growth must be well below the constant-size expectation.
	names := TipNames(6)
	src := rng.NewMT19937(3)
	const reps = 3000
	heightAt := func(g float64) float64 {
		sum := 0.0
		for r := 0; r < reps; r++ {
			tr, err := SimulateGrowth(names, 1.0, g, src)
			if err != nil {
				t.Fatal(err)
			}
			sum += tr.Height()
		}
		return sum / reps
	}
	h0 := heightAt(0)
	h5 := heightAt(5)
	h50 := heightAt(50)
	if !(h0 > h5 && h5 > h50) {
		t.Errorf("heights not decreasing with growth: %v, %v, %v", h0, h5, h50)
	}
	want := 1.0 * (1 - 1.0/6)
	if math.Abs(h0-want) > 0.05*want {
		t.Errorf("g=0 mean height = %v, want %v", h0, want)
	}
}

func TestSimulateGrowthFirstIntervalDistribution(t *testing.T) {
	// The first coalescence among k lineages under growth has survival
	// P(T > t) = exp(-k(k-1)(e^{gt}-1)/(g theta)); check the median.
	names := TipNames(4) // k = 4, rate factor 12
	theta, g := 2.0, 3.0
	src := rng.NewMT19937(4)
	const reps = 40000
	var times []float64
	for r := 0; r < reps; r++ {
		tr, err := SimulateGrowth(names, theta, g, src)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, tr.CoalescentAges()[0])
	}
	// Median solves k(k-1)(e^{gt}-1)/(g theta) = ln 2.
	k := 4.0
	wantMedian := math.Log(1+g*theta*math.Ln2/(k*(k-1))) / g
	// Empirical median.
	below := 0
	for _, x := range times {
		if x < wantMedian {
			below++
		}
	}
	frac := float64(below) / reps
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P(T < analytic median) = %v, want 0.5", frac)
	}
}

func TestSimulateGrowthErrors(t *testing.T) {
	src := rng.NewMT19937(5)
	if _, err := SimulateGrowth(TipNames(1), 1, 1, src); err == nil {
		t.Error("single tip accepted")
	}
	if _, err := SimulateGrowth(TipNames(3), 0, 1, src); err == nil {
		t.Error("zero theta accepted")
	}
	if _, err := SimulateGrowth(TipNames(3), 1, -0.5, src); err == nil {
		t.Error("negative growth accepted")
	}
}

// TestSimulateGrowthPinnedDraw pins one growing-population genealogy at
// a fixed seed: each interior node's children and the bits of its age.
// The distributional tests cannot see a reordered draw or a moved
// rounding; this one can.
func TestSimulateGrowthPinnedDraw(t *testing.T) {
	tr, err := SimulateGrowth(TipNames(6), 1.5, 2.5, rng.NewMT19937(7))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		c0, c1 int
		age    uint64
	}{
		{2, 4, 0x3f702d2024c46a86},
		{6, 5, 0x3fb6ed3d7422b8c2},
		{0, 1, 0x3fc3aa13cb271be4},
		{3, 7, 0x3fd072ff58f2172f},
		{8, 9, 0x3fda5cd843f2a1d8},
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
