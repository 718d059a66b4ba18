package rng

import (
	"math"
	"testing"
)

// Known-answer test: the first outputs of MT19937 seeded with 5489 (the
// reference default) are published in the original mt19937ar.c output.
func TestMT19937KnownAnswer(t *testing.T) {
	m := NewMT19937(5489)
	want := []uint32{3499211612, 581869302, 3890346734, 3586334585, 545404204}
	for i, w := range want {
		if got := m.Uint32(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

// Known-answer test for init_by_array with the reference key
// {0x123, 0x234, 0x345, 0x456}: first outputs from mt19937ar.out.
func TestMT19937SeedArrayKnownAnswer(t *testing.T) {
	m := &MT19937{}
	m.SeedArray([]uint32{0x123, 0x234, 0x345, 0x456})
	want := []uint32{1067595299, 955945823, 477289528, 4107218783, 4228976476}
	for i, w := range want {
		if got := m.Uint32(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestMT19937Determinism(t *testing.T) {
	a, b := NewMT19937(42), NewMT19937(42)
	for i := 0; i < 2000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	m := NewMT19937(7)
	for i := 0; i < 100000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	m := NewMT19937(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := m.Float64()
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestStreamSetIndependence(t *testing.T) {
	s := NewStreamSet(8, 99)
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	// Streams must differ from each other at the same execution point.
	firsts := map[uint32]int{}
	for i := 0; i < 8; i++ {
		v := s.Stream(i).Uint32()
		if prev, dup := firsts[v]; dup {
			t.Errorf("streams %d and %d emitted identical first output %d", prev, i, v)
		}
		firsts[v] = i
	}
}

func TestStreamSetDeterministic(t *testing.T) {
	a := NewStreamSet(4, 123)
	b := NewStreamSet(4, 123)
	for i := 0; i < 4; i++ {
		for k := 0; k < 100; k++ {
			if a.Stream(i).Uint32() != b.Stream(i).Uint32() {
				t.Fatalf("stream %d diverged at step %d", i, k)
			}
		}
	}
}

func TestStreamSetCrossCorrelation(t *testing.T) {
	s := NewStreamSet(2, 5)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		a := s.Stream(0).Float64() - 0.5
		b := s.Stream(1).Float64() - 0.5
		sum += a * b
	}
	corr := sum / n * 12 // normalized by uniform variance 1/12
	if math.Abs(corr) > 0.03 {
		t.Errorf("cross-stream correlation = %v, want ~0", corr)
	}
}

func TestIntnBounds(t *testing.T) {
	m := NewMT19937(3)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := Intn(m, 5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	Intn(NewMT19937(1), 0)
}

func TestExpMean(t *testing.T) {
	m := NewMT19937(17)
	const n = 200000
	rate := 2.5
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exp(m, rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestTruncExpWithinBound(t *testing.T) {
	m := NewMT19937(23)
	for i := 0; i < 20000; i++ {
		x := TruncExp(m, 3.0, 0.7)
		if x < 0 || x > 0.7 {
			t.Fatalf("TruncExp out of [0, 0.7]: %v", x)
		}
	}
}

func TestTruncExpMean(t *testing.T) {
	m := NewMT19937(29)
	rate, bound := 2.0, 1.5
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += TruncExp(m, rate, bound)
	}
	mean := sum / n
	// E[X] for truncated exponential: 1/rate - bound*exp(-rate*bound)/(1-exp(-rate*bound))
	rb := rate * bound
	want := 1/rate - bound*math.Exp(-rb)/(1-math.Exp(-rb))
	if math.Abs(mean-want) > 0.005 {
		t.Errorf("TruncExp mean = %v, want %v", mean, want)
	}
}

func TestTruncExpZeroRateIsUniform(t *testing.T) {
	m := NewMT19937(31)
	const n = 100000
	bound := 2.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += TruncExp(m, 0, bound)
	}
	if math.Abs(sum/n-bound/2) > 0.02 {
		t.Errorf("TruncExp(rate=0) mean = %v, want %v", sum/n, bound/2)
	}
}

func TestTruncExpNegativeRateMirrors(t *testing.T) {
	m := NewMT19937(37)
	rate, bound := -2.0, 1.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := TruncExp(m, rate, bound)
		if x < 0 || x > bound {
			t.Fatalf("out of range: %v", x)
		}
		sum += x
	}
	// Mirrored: mean = bound - meanOfPositive.
	rb := 2.0 * bound
	wantPos := 1/2.0 - bound*math.Exp(-rb)/(1-math.Exp(-rb))
	want := bound - wantPos
	if math.Abs(sum/n-want) > 0.005 {
		t.Errorf("mean = %v, want %v", sum/n, want)
	}
}

func TestTruncExpZeroBound(t *testing.T) {
	if x := TruncExp(NewMT19937(1), 1.0, 0); x != 0 {
		t.Errorf("TruncExp with bound 0 = %v, want 0", x)
	}
}

func TestCategoricalProportions(t *testing.T) {
	m := NewMT19937(41)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[Categorical(m, w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical p[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	m := NewMT19937(43)
	w := []float64{0, 1, 0}
	for i := 0; i < 10000; i++ {
		if Categorical(m, w) != 1 {
			t.Fatal("zero-weight index chosen")
		}
	}
}

func TestLogCategoricalMatchesLinear(t *testing.T) {
	m := NewMT19937(47)
	logw := []float64{math.Log(1), math.Log(2), math.Log(7)}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[LogCategorical(m, logw)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("LogCategorical p[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestLogCategoricalExtremeWeights(t *testing.T) {
	m := NewMT19937(53)
	// Underflow-scale weights must still be compared correctly.
	logw := []float64{-1e6, -1e6 + math.Log(3)}
	counts := make([]int, 2)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[LogCategorical(m, logw)]++
	}
	got := float64(counts[1]) / n
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("p[1] = %v, want 0.75", got)
	}
}

// fixedSource returns the same Float64 forever.
type fixedSource float64

func (f fixedSource) Uint32() uint32   { return 0 }
func (f fixedSource) Float64() float64 { return float64(f) }

// TestLogTableMatchesLogCategorical: a LogTable loaded once draws the
// same indices as LogCategorical over the same weights and stream, for
// random weights with NegInf entries, and when floating-point slack sends
// the walk past the last bucket.
func TestLogTableMatchesLogCategorical(t *testing.T) {
	gen := NewMT19937(61)
	table := NewLogTable(4)
	for trial := 0; trial < 2000; trial++ {
		logw := make([]float64, 1+Intn(gen, 12))
		for i := range logw {
			switch Intn(gen, 4) {
			case 0:
				logw[i] = math.Inf(-1)
			case 1:
				logw[i] = -800 * gen.Float64() // underflows against the max
			default:
				logw[i] = 10 * Normal(gen)
			}
		}
		logw[Intn(gen, len(logw))] = Normal(gen) // at least one finite weight
		table.Reset(logw)
		a, b := NewMT19937(uint32(62+trial)), NewMT19937(uint32(62+trial))
		for k := 0; k < len(logw); k++ {
			if got, want := table.Draw(a), LogCategorical(b, logw); got != want {
				t.Fatalf("trial %d draw %d: table drew %d, LogCategorical %d (weights %v)", trial, k, got, want, logw)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("trial %d: streams consumed differently", trial)
		}
	}

	// Slack: a variate at the top of the range puts x at the total, past
	// the last prefix sum, and both fall back to the last index with
	// non-NegInf weight — even one whose exponential underflowed to zero.
	u := fixedSource(1)
	for _, tc := range []struct {
		logw []float64
		want int
	}{
		{[]float64{0, 0, 0, math.Inf(-1)}, 2},
		{[]float64{0, 0, 0, -1000, math.Inf(-1)}, 3},
	} {
		table.Reset(tc.logw)
		if got, want := table.Draw(u), LogCategorical(u, tc.logw); got != tc.want || want != tc.want {
			t.Errorf("slack over %v: table %d, LogCategorical %d, want %d", tc.logw, got, want, tc.want)
		}
	}
}

// TestLogTableBoundaries draws at variates that put x on either side of
// each prefix-sum boundary, where any change to the normalisation's bits
// moves the drawn index.
func TestLogTableBoundaries(t *testing.T) {
	logw := []float64{0, 0, 0, 0} // prefix sums 1, 2, 3, 4
	table := NewLogTable(len(logw))
	table.Reset(logw)
	for k := 1; k < len(logw); k++ {
		edge := float64(k) / 4
		for _, tc := range []struct {
			u    float64
			want int
		}{{math.Nextafter(edge, 0), k - 1}, {edge, k}} {
			got, oracle := table.Draw(fixedSource(tc.u)), LogCategorical(fixedSource(tc.u), logw)
			if got != tc.want || oracle != tc.want {
				t.Errorf("u=%v: table %d, LogCategorical %d, want %d", tc.u, got, oracle, tc.want)
			}
		}
	}
}

func TestLogTableAllNegInfPanics(t *testing.T) {
	for _, f := range []func(logw []float64){
		func(logw []float64) { LogCategorical(NewMT19937(63), logw) },
		func(logw []float64) { NewLogTable(2).Reset(logw) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "rng: LogCategorical with all-zero weights" {
					t.Errorf("recovered %v, want the all-zero weights panic", r)
				}
			}()
			f([]float64{math.Inf(-1), math.Inf(-1)})
		}()
	}
}

func TestUniformPair(t *testing.T) {
	m := NewMT19937(59)
	seen := map[[2]int]int{}
	const n = 60000
	for k := 0; k < n; k++ {
		i, j := UniformPair(m, 4)
		if i < 0 || j >= 4 || i >= j {
			t.Fatalf("bad pair (%d,%d)", i, j)
		}
		seen[[2]int{i, j}]++
	}
	if len(seen) != 6 {
		t.Fatalf("got %d distinct pairs, want 6", len(seen))
	}
	for p, c := range seen {
		if math.Abs(float64(c)/n-1.0/6) > 0.01 {
			t.Errorf("pair %v frequency %v, want ~1/6", p, float64(c)/n)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	m := NewMT19937(67)
	const n = 300000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := Normal(m)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Normal variance = %v, want ~1", variance)
	}
}

func TestNormalTails(t *testing.T) {
	m := NewMT19937(71)
	const n = 200000
	within1, within2 := 0, 0
	for i := 0; i < n; i++ {
		x := math.Abs(Normal(m))
		if x < 1 {
			within1++
		}
		if x < 2 {
			within2++
		}
	}
	if f := float64(within1) / n; math.Abs(f-0.6827) > 0.01 {
		t.Errorf("P(|X|<1) = %v, want 0.683", f)
	}
	if f := float64(within2) / n; math.Abs(f-0.9545) > 0.01 {
		t.Errorf("P(|X|<2) = %v, want 0.954", f)
	}
}

func TestLogNormalStepPositive(t *testing.T) {
	m := NewMT19937(73)
	x := 2.5
	for i := 0; i < 10000; i++ {
		y := LogNormalStep(m, x, 0.3)
		if y <= 0 || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("LogNormalStep produced %v", y)
		}
	}
}

func TestLogNormalStepMedianPreserved(t *testing.T) {
	// The multiplicative walk is symmetric in log space: the median of
	// one step equals the starting point.
	m := NewMT19937(79)
	x := 1.7
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		if LogNormalStep(m, x, 0.5) < x {
			below++
		}
	}
	if f := float64(below) / n; math.Abs(f-0.5) > 0.01 {
		t.Errorf("P(step < x) = %v, want 0.5", f)
	}
}
