package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one measured quantity of a run. Value is the reported
// figure (a median where several samples stand behind it); N counts the
// samples, and Q1/Q3 give their spread when N > 1. Pct names the
// percentile a tail figure sits at (see tailPercentile).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// Metrics maps metric names to their values. Non-finite values are
// refused at insertion and reported through errs: a NaN cannot travel in
// JSON, and a metric that came out NaN is a measurement failure.
type Metrics struct {
	m    map[string]Metric
	errs []string
}

func newMetrics() *Metrics { return &Metrics{m: make(map[string]Metric)} }

func (ms *Metrics) put(name string, m Metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %s is not finite (%v)", name, m.Value))
		return
	}
	ms.m[name] = m
}

// set records a single-valued metric.
func (ms *Metrics) set(name, unit string, v float64) {
	ms.put(name, Metric{Value: v, Unit: unit, N: 1})
}

// summary records the median of xs with its quartiles and sample count.
func (ms *Metrics) summary(name, unit string, xs []float64) {
	if len(xs) == 0 {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %s has no samples", name))
		return
	}
	q1, q2, q3 := quartiles(xs)
	ms.put(name, Metric{Value: q2, Unit: unit, N: len(xs), Q1: q1, Q3: q3})
}

// tail records the highest percentile of xs that has at least
// tailBeyond samples beyond it, labelled with that percentile; with too
// few samples for any percentile it records nothing.
func (ms *Metrics) tail(name, unit string, xs []float64) {
	pct, v, ok := tailPercentile(xs)
	if !ok {
		return
	}
	ms.put(name, Metric{Value: v, Unit: unit, N: len(xs), Pct: pct})
}

// at records the p-th percentile of xs, labelled with p.
func (ms *Metrics) at(name, unit string, xs []float64, p float64) {
	if len(xs) == 0 {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %s has no samples", name))
		return
	}
	ms.put(name, Metric{Value: percentile(sorted(xs), p), Unit: unit, N: len(xs), Pct: p})
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(n=4), the
// definition the benchmark's spread checks are stated in. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return exclusiveQuartile(s, 1), median(s), exclusiveQuartile(s, 3)
}

// exclusiveQuartile is the i-th cut point of statistics.quantiles(s,
// n=4, method='exclusive') for a sorted s of at least two samples,
// transcribed with its integer arithmetic (including the extrapolation
// it does for very small samples).
func exclusiveQuartile(s []float64, i int) float64 {
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles with
// at least tailBeyond samples beyond it, and its value by linear
// interpolation between order statistics. ok is false when even the
// median has fewer than tailBeyond samples beyond it.
func tailPercentile(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= tailBeyond-1e-9 {
			return p, percentile(sorted(xs), p), true
		}
	}
	return 0, 0, false
}

// percentile interpolates the p-th percentile of a sorted sample.
func percentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	j := int(pos)
	if j >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[j] + (pos-float64(j))*(s[j+1]-s[j])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
