package logspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func near(a, b, eps float64) bool {
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

func TestAddKnownValues(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{math.Log(1), math.Log(1), math.Log(2)},
		{math.Log(3), math.Log(5), math.Log(8)},
		{math.Log(1e-300), math.Log(1e-300), math.Log(2e-300)},
		{0, NegInf, 0},
		{NegInf, 0, 0},
		{NegInf, NegInf, NegInf},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); !near(got, c.want, tol) {
			t.Errorf("Add(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return near(Add(a, b), Add(b, a), tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAssociative(t *testing.T) {
	f := func(a, b, c float64) bool {
		a, b, c = math.Mod(a, 200), math.Mod(b, 200), math.Mod(c, 200)
		return near(Add(Add(a, b), c), Add(a, Add(b, c)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddMatchesDirect(t *testing.T) {
	f := func(x, y float64) bool {
		// Map into a range where direct computation is exact.
		x = math.Abs(math.Mod(x, 100)) + 1e-3
		y = math.Abs(math.Mod(y, 100)) + 1e-3
		direct := math.Log(x + y)
		return near(Add(math.Log(x), math.Log(y)), direct, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddFarApartDoesNotUnderflow(t *testing.T) {
	// exp(-800) underflows alone; the sum must still equal the larger term.
	got := Add(-800, -2000)
	if !near(got, -800, 1e-12) {
		t.Errorf("Add(-800,-2000) = %v, want -800", got)
	}
}

func TestSub(t *testing.T) {
	got, ok := Sub(math.Log(8), math.Log(5))
	if !ok || !near(got, math.Log(3), tol) {
		t.Errorf("Sub(log 8, log 5) = %v ok=%v, want log 3", got, ok)
	}
	if got, ok := Sub(math.Log(2), math.Log(2)); !ok || !IsZero(got) {
		t.Errorf("Sub(equal) = %v ok=%v, want -Inf true", got, ok)
	}
	if _, ok := Sub(math.Log(2), math.Log(3)); ok {
		t.Error("Sub with b > a should report not ok")
	}
}

func TestSubInverseOfAdd(t *testing.T) {
	f := func(a, gap float64) bool {
		// Keep the two terms within ~15 nats of each other: when the
		// subtrahend is hundreds of orders of magnitude smaller it is
		// legitimately absorbed by floating point and cannot be recovered.
		a = math.Mod(a, 300)
		b := a + math.Mod(gap, 15)
		s := Add(a, b)
		back, ok := Sub(s, b)
		return ok && near(back, a, 1e-6)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSumKnown(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3), math.Log(4)}
	if got := Sum(xs); !near(got, math.Log(10), tol) {
		t.Errorf("Sum = %v, want log 10", got)
	}
	if got := Sum(nil); !IsZero(got) {
		t.Errorf("Sum(nil) = %v, want -Inf", got)
	}
	if got := Sum([]float64{NegInf, NegInf}); !IsZero(got) {
		t.Errorf("Sum(all -Inf) = %v, want -Inf", got)
	}
}

func TestSumExtremeScale(t *testing.T) {
	// All terms individually underflow exp(); sum must still be finite.
	xs := []float64{-1e4, -1e4, -1e4, -1e4}
	want := -1e4 + math.Log(4)
	if got := Sum(xs); !near(got, want, tol) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestSumMatchesPairwiseAdd(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(v, 500)
		}
		acc := NegInf
		for _, x := range xs {
			acc = Add(acc, x)
		}
		return near(Sum(xs), acc, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{math.Log(2), math.Log(4)}
	if got := Mean(xs); !near(got, math.Log(3), tol) {
		t.Errorf("Mean = %v, want log 3", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("Max = %v, want -1", got)
	}
	if got := Max(nil); !IsZero(got) {
		t.Errorf("Max(nil) = %v, want -Inf", got)
	}
}
