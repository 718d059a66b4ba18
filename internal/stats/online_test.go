package stats

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestOnlineDiagIIDMatchesBatchESS(t *testing.T) {
	d := NewOnlineDiag()
	var g lcg = 7
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = g.next()
		d.Add(xs[i])
	}
	if d.N() != len(xs) {
		t.Fatalf("N = %d", d.N())
	}
	ess := d.ESS()
	// IID draws: ESS should be a large fraction of n.
	if ess < 0.5*float64(len(xs)) || ess > 1.01*float64(len(xs)) {
		t.Fatalf("IID ESS = %.1f for n=%d", ess, len(xs))
	}
	rhat := d.RHat()
	if math.IsNaN(rhat) || math.Abs(rhat-1) > 0.1 {
		t.Fatalf("IID split R-hat = %v, want ~1", rhat)
	}
}

func TestOnlineDiagCorrelatedChainShrinksESS(t *testing.T) {
	diid := NewOnlineDiag()
	dar := NewOnlineDiag()
	var g lcg = 13
	x := 0.0
	const n = 4000
	for i := 0; i < n; i++ {
		e := g.next() - 0.5
		diid.Add(e)
		x = 0.95*x + e // AR(1), strongly autocorrelated
		dar.Add(x)
	}
	if dar.ESS() > 0.25*diid.ESS() {
		t.Fatalf("AR(1) ESS %.1f not ≪ IID ESS %.1f", dar.ESS(), diid.ESS())
	}
}

func TestOnlineDiagDriftInflatesRHat(t *testing.T) {
	d := NewOnlineDiag()
	var g lcg = 21
	const n = 4000
	for i := 0; i < n; i++ {
		// A mean shift between the halves: split R-hat must flag it.
		d.Add(g.next() + 5*float64(i)/n)
	}
	if r := d.RHat(); !(r > 1.2) {
		t.Fatalf("drifting chain split R-hat = %v, want > 1.2", r)
	}
}

func TestOnlineDiagDeterministicReplay(t *testing.T) {
	a, b := NewOnlineDiag(), NewOnlineDiag()
	var g lcg = 3
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = g.next()
	}
	for _, x := range xs {
		a.Add(x)
	}
	// b sees the same stream in two installments with interleaved
	// queries, as a resumed run would.
	for _, x := range xs[:1234] {
		b.Add(x)
	}
	_, _ = b.ESS(), b.RHat()
	for _, x := range xs[1234:] {
		b.Add(x)
	}
	if math.Float64bits(a.ESS()) != math.Float64bits(b.ESS()) {
		t.Fatalf("ESS diverged: %v vs %v", a.ESS(), b.ESS())
	}
	ra, rb := a.RHat(), b.RHat()
	if math.Float64bits(ra) != math.Float64bits(rb) {
		t.Fatalf("RHat diverged: %v vs %v", ra, rb)
	}
}

func TestOnlineDiagBoundedMemory(t *testing.T) {
	d := NewOnlineDiag()
	var g lcg = 9
	for i := 0; i < 200000; i++ {
		d.Add(g.next())
	}
	if len(d.means) >= onlineMaxMeans || cap(d.means) > onlineMaxMeans {
		t.Fatalf("means grew to %d/%d", len(d.means), cap(d.means))
	}
	if d.bsize < 200000/onlineMaxMeans {
		t.Fatalf("batch size %d did not double enough", d.bsize)
	}
}

func TestOnlineDiagEdgeCases(t *testing.T) {
	d := NewOnlineDiag()
	if got := d.ESS(); got != 0 {
		t.Fatalf("empty ESS = %v", got)
	}
	if !math.IsNaN(d.RHat()) {
		t.Fatal("empty RHat should be NaN")
	}
	d.Add(1)
	d.Add(2)
	if !math.IsNaN(d.RHat()) {
		t.Fatal("2-value RHat should be NaN")
	}
	if d.ESS() <= 0 {
		t.Fatal("ESS should be positive once values exist")
	}
}

// ar1 returns n draws of x_i = ρ·x_{i-1} + e_i with standard normal
// innovations, started from the stationary distribution; its true ESS
// is n(1−ρ)/(1+ρ).
func ar1(g lcg, rho float64, n int) []float64 {
	xs := make([]float64, n)
	x := g.gauss() / math.Sqrt(1-rho*rho)
	for i := range xs {
		x = rho*x + g.gauss()
		xs[i] = x
	}
	return xs
}

// TestEffectiveSampleSizeTable pins the estimator on traces short
// enough that every batch holds one draw (n ≤ 255), where it is the
// initial-positive-sequence sum over the draws themselves. The bits
// are those the earlier full-trace implementation returned, which
// recomputed the mean and the lag-0 sum at every lag.
func TestEffectiveSampleSizeTable(t *testing.T) {
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	trend := ar1(5, 0, 200)
	for i := range trend {
		trend[i] += float64(i) / 20
	}
	for _, c := range []struct {
		name string
		xs   []float64
		bits uint64
	}{
		{"constant", slices.Repeat([]float64{-1234.567}, 100), 0},
		{"short", ar1(1, 0.5, 9), 0x4022000000000000},
		{"iid", ar1(2, 0, 60), 0x40478d4fd8ddfc43},
		{"ar1 0.5", ar1(3, 0.5, 37), 0x4033b4348a96dd98},
		{"ar1 0.9", ar1(4, 0.9, 128), 0x402c1b0bc51d93ee},
		{"ar1 0.99", ar1(6, 0.99, 255), 0x4013dbc138aced39},
		// Lag-1 autocorrelation −1 ends the sum at once: ESS n.
		{"alternating", alt, 0x4059000000000000},
		{"trend", trend, 0x400a65e64441feb8},
	} {
		if got := EffectiveSampleSize(c.xs); math.Float64bits(got) != c.bits {
			t.Errorf("%s (n=%d): ESS %v (%#016x), want %v (%#016x)",
				c.name, len(c.xs), got, math.Float64bits(got), math.Float64frombits(c.bits), c.bits)
		}
	}
}

// TestOnlineESSMatchesOffline feeds a trace draw by draw, querying the
// accumulator as the stop rule does, and requires its ESS to equal the
// offline ESS of each prefix bit for bit, including across batch
// merges.
func TestOnlineESSMatchesOffline(t *testing.T) {
	xs := ar1(17, 0.95, 5000)
	d := NewOnlineDiag()
	for i, x := range xs {
		d.Add(x)
		if (i+1)%64 == 0 {
			_, _ = d.ESS(), d.RHat()
		}
		switch n := i + 1; n {
		case 9, 10, 255, 256, 257, 511, 512, 1000, 4097, len(xs):
			on, off := d.ESS(), EffectiveSampleSize(xs[:n])
			if math.Float64bits(on) != math.Float64bits(off) {
				t.Errorf("n=%d: online ESS %v, offline %v", n, on, off)
			}
		}
	}
}

// TestESSAR1 checks the estimator against AR(1) chains of known
// integrated autocorrelation time τ = (1+ρ)/(1−ρ): at n = 10^5 the
// median over 8 seeds is within 10% of n/τ.
func TestESSAR1(t *testing.T) {
	const n, seeds = 100000, 8
	for _, rho := range []float64{0.5, 0.9, 0.99} {
		t.Run(fmt.Sprint(rho), func(t *testing.T) {
			want := n * (1 - rho) / (1 + rho)
			ratios := make([]float64, seeds)
			for s := range ratios {
				ratios[s] = EffectiveSampleSize(ar1(lcg(100+s), rho, n)) / want
			}
			slices.Sort(ratios)
			med := (ratios[seeds/2-1] + ratios[seeds/2]) / 2
			t.Logf("ESS/true: median %.3f, range %.3f–%.3f", med, ratios[0], ratios[seeds-1])
			if math.Abs(med-1) > 0.1 {
				t.Errorf("median ESS is %.3f of the true %.0f", med, want)
			}
		})
	}
}
