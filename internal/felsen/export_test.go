package felsen

import "testing"

// detectedTier is the tier package init detected, before any test
// forces one.
var detectedTier = kernelTier

// allTiers are the kernel tiers in fallback order, widest last.
var allTiers = []tier{tierScalar, tierAVX2, tierAVX512}

// useTier forces the pattern kernels to tier t for the rest of tb,
// restoring the detected tier at cleanup. A tier above the detected one
// skips tb, naming both. Tests that call it must not run in parallel
// with other evaluator tests.
func useTier(tb testing.TB, t tier) {
	tb.Helper()
	if t > detectedTier {
		tb.Skipf("CPU runs the kernels at tier %s at most: the %s kernels cannot run here", detectedTier, t)
	}
	tb.Cleanup(func() { kernelTier = detectedTier })
	kernelTier = t
}

// ForEachTier runs f once per kernel tier, as subtests "scalar", "avx2"
// and "avx512", with the tier forced. The tier covers every kernel in
// kernels.go: node, walk, lift, neighbourhood and the root contraction
// with its vector log. A tier the CPU lacks skips its subtest.
func ForEachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	runTiers(t, allTiers, func(t *testing.T, _ tier) { f(t) })
}

// forEachVectorTier runs f at each vector tier, as subtests "avx2" and
// "avx512", passing the forced tier: the kernel bit tests compare each
// with the scalar loops.
func forEachVectorTier(t *testing.T, f func(t *testing.T, vec tier)) {
	t.Helper()
	runTiers(t, allTiers[tierAVX2:], f)
}

// runTiers runs f once per tier in tiers, as a subtest named after the
// tier, with the tier forced.
func runTiers(t *testing.T, tiers []tier, f func(t *testing.T, tr tier)) {
	t.Helper()
	for _, tr := range tiers {
		t.Run(tr.String(), func(t *testing.T) {
			useTier(t, tr)
			f(t, tr)
		})
	}
}

// Patterns returns e's site-pattern compression: the number of distinct
// columns, each pattern's multiplicity and each tip's per-pattern code.
func Patterns(e *Evaluator) (n int, count []float64, base [][]uint8) {
	return e.nPatterns, e.patCount, e.patBase
}
