package felsen

import "testing"

// hasAVX2 is the dispatch package init detected, before any test forces it.
var hasAVX2 = useAVX2

// SetUseAVX2 forces the AVX2 pattern kernels on or off for the rest of
// tb, restoring the detected setting at cleanup. Forcing them on skips
// tb on a CPU without AVX2 (and off amd64). Tests that call it must not
// run in parallel with other evaluator tests.
func SetUseAVX2(tb testing.TB, on bool) {
	tb.Helper()
	if on && !hasAVX2 {
		tb.Skip("CPU lacks AVX2: only the scalar kernels run here")
	}
	prev := useAVX2
	useAVX2 = on
	tb.Cleanup(func() { useAVX2 = prev })
}

// ForEachKernel runs f once with the scalar kernels and once with the
// AVX2 kernels, as subtests "scalar" and "avx2". The switch covers every
// kernel in kernels.go: node, walk, lift, neighbourhood and the root
// contraction with its vector log.
func ForEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		name := "scalar"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			SetUseAVX2(t, on)
			f(t)
		})
	}
}
