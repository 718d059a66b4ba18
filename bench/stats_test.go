package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from statistics.quantiles(data, n=4) (method 'exclusive').
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i) // descending, so the helper must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: tail percentile p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if beyond := float64(c.n-1) - v; beyond+1 < tailBeyond {
			t.Errorf("n=%d: p%v = %v leaves %v samples beyond it", c.n, pct, v, beyond)
		}
	}
}

func TestMetricsRecordSampleCountAndRefuseNaN(t *testing.T) {
	ms := newMetrics()
	ms.tail("lat", "s", ramp(100))
	if m := ms.m["lat"]; m.N != 100 || m.Pct != 90 || math.Abs(m.Value-89.1) > 1e-9 {
		t.Errorf("tail metric = %+v, want p90 = 89.1 over 100 samples", m)
	}
	ms.summary("x", "s", []float64{3, 1, 2})
	if m := ms.m["x"]; m.N != 3 || m.Value != 2 {
		t.Errorf("summary metric = %+v, want median 2 of 3", m)
	}
	ms.set("bad", "s", math.NaN())
	ms.tail("few", "s", ramp(5))
	if _, ok := ms.m["few"]; ok {
		t.Error("tail of 5 samples was recorded")
	}
	if _, ok := ms.m["bad"]; ok || len(ms.errs) != 1 {
		t.Errorf("NaN metric stored or errors not reported: %v", ms.errs)
	}
}
