package felsen

// Bit-identity of the vector pattern kernels (kernels_amd64.s) with
// their scalar twins (kernels.go), at each vector tier the CPU runs
// (subtests "avx2" and "avx512"; a tier the CPU lacks skips). Every case
// runs the scalar loop and the vector dispatch on identical copies of
// the same rows and compares the whole backing arrays with
// math.Float64bits (see sameBits for NaN payloads), so a wrong lane, a
// stray write outside [0, n) or a differently rounded value all fail.
// The cases cover every length mod 4, every start offset mod 4 (a
// block's lo with a block size that is not a multiple of 4), rescale
// groups at the first, middle and last group position, and the values
// 0, −0, subnormals, exactly 1e-150, +Inf and NaN;
// TestAVX2EightGroupBoundary adds every length mod 8 and rescale lanes
// in either half of an 8-pattern group.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcgs/internal/rng"
	"mpcgs/internal/subst"
)

// kernelSpecials are the edge values mixed into the "special" regime.
var kernelSpecials = []float64{0, math.Copysign(0, -1), 5e-324, 2.5e-310, rescaleThreshold, math.Inf(1), math.NaN()}

// kernelLengths covers n%4 = 0..3 below one group, around a few groups,
// and around a full 128-pattern block.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 24, 25, 26, 27, 128, 129, 130, 131}

// kernelRow is one row's backing lanes and the view a kernel sees.
type kernelRow struct {
	cond, scale []float64
	view        rowView
}

func (r kernelRow) clone() kernelRow {
	c := kernelRow{cond: append([]float64(nil), r.cond...), scale: append([]float64(nil), r.scale...)}
	off := len(r.scale) - len(r.view.scale)
	c.view = rowView{c.cond[off:], c.scale[off:], r.view.stride}
	return c
}

type kernelGen struct {
	src     *rng.MT19937
	special bool
}

func (g *kernelGen) value() float64 {
	if g.special && g.src.Uint32()%5 == 0 {
		return kernelSpecials[g.src.Uint32()%uint32(len(kernelSpecials))]
	}
	return g.src.Float64()
}

// row builds an n-pattern row whose view starts off patterns into its
// lanes, with a lane stride that is not a multiple of 4, so lanes and
// view start at every alignment.
func (g *kernelGen) row(n, off int) kernelRow {
	return g.rowStride(n, off, off+n+5)
}

// rowStride is row with the lane stride given; stride ≥ off+n.
func (g *kernelGen) rowStride(n, off, stride int) kernelRow {
	return g.fill(make([]float64, 3*stride+off+n), make([]float64, off+n), off, stride)
}

// laneRow builds an n-pattern row at the production layout: lane stride
// laneStride(n), lanes from alignedLanes.
func (g *kernelGen) laneRow(n int) kernelRow {
	st := laneStride(n)
	return g.fill(alignedLanes(nStates*st), alignedLanes(st), 0, st)
}

// fill fills cond and scale with generated values and views them from
// pattern off at the given lane stride.
func (g *kernelGen) fill(cond, scale []float64, off, stride int) kernelRow {
	r := kernelRow{cond: cond, scale: scale}
	for i := range r.cond {
		r.cond[i] = g.value()
	}
	for i := range r.scale {
		r.scale[i] = -40 * g.value()
	}
	r.view = rowView{r.cond[off:], r.scale[off:], stride}
	return r
}

// shrink scales pattern p of every state lane of r by 1e-160, so a node
// reading it produces a maximum inside (0, 1e-150) — a rescale group.
func (r kernelRow) shrink(p int) {
	for x := 0; x < nStates; x++ {
		r.view.cond[x*r.view.stride+p] *= 1e-160
	}
}

// kernelMatrices returns F81 transition matrices from near-identity to
// near-stationary, plus the identity, whose zeros meet +Inf lanes.
func kernelMatrices(t testing.TB) []subst.Matrix {
	t.Helper()
	model, err := subst.NewF81([4]float64{0.1, 0.2, 0.3, 0.4}, true)
	if err != nil {
		t.Fatal(err)
	}
	var ms []subst.Matrix
	for _, bl := range []float64{0, 1e-3, 0.1, 2} {
		var m subst.Matrix
		model.TransitionInto(bl, &m)
		ms = append(ms, m)
	}
	return ms
}

// kernelCase is one (length, offset, regime, rescale placement) point.
type kernelCase struct {
	n, off  int
	special bool
	tiny    []int // patterns to shrink: one per rescale group
	name    string
}

func kernelCases() []kernelCase {
	var cases []kernelCase
	for _, n := range kernelLengths {
		groups := n / 4
		places := [][]int{nil}
		if groups > 0 {
			first, mid, last := 0, groups/2, groups-1
			// One shrunk lane per group, at a varying lane position.
			at := func(g int) int { return 4*g + g%4 }
			places = append(places, []int{at(first)}, []int{at(mid)}, []int{at(last)}, []int{at(first), at(mid), at(last)})
		}
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				for _, tiny := range places {
					cases = append(cases, kernelCase{n, off, special, tiny,
						fmt.Sprintf("n=%d/off=%d/special=%v/rescale=%v", n, off, special, tiny)})
				}
			}
		}
	}
	return cases
}

// sameBits fails t unless a and b are equal bit for bit, except that a
// NaN matches a NaN of any payload. IEEE 754 leaves the payload of an
// operation on two NaNs to the implementation; x86 returns its first
// source, and which operand gc makes the first source of a scalar ADDSD
// or MULSD is a register-allocation choice, not part of the Go source.
// (The edge values make two payloads meet: +Inf·0 yields the default NaN
// and the NaN lanes carry math.NaN's.) Whether a lane is NaN, and every
// other value including ±0, must match exactly; a NaN that reached the
// running maximum would change the rescale decision and so the bits of
// the lane's non-NaN neighbours.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s[%d]: scalar %v (%#x), vector %v (%#x)", what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

func sameRows(t *testing.T, what string, a, b kernelRow) {
	t.Helper()
	sameBits(t, what+".cond", a.cond, b.cond)
	sameBits(t, what+".scale", a.scale, b.scale)
}

func TestAVX2NodeKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, _ tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(11)}
		for ci, c := range kernelCases() {
			g.special = c.special
			l, r, o := g.row(c.n, c.off), g.row(c.n, c.off), g.row(c.n, c.off)
			for _, p := range c.tiny {
				l.shrink(p)
				r.shrink(p)
			}
			m0, m1 := &ms[ci%len(ms)], &ms[(ci+1)%len(ms)]
			want, got := o.clone(), o.clone()
			nodeScalar(l.view, r.view, want.view, m0, m1, 0, c.n)
			evalNode(l.view, r.view, got.view, m0, m1, c.n)
			sameRows(t, c.name+" o", want, got)
			if !c.special && c.tiny == nil {
				if done := nodeVec(l.view, r.view, got.view, m0, m1, 0, c.n); done != c.n-c.n%4 {
					t.Fatalf("%s: vector kernel finished %d patterns, want %d", c.name, done, c.n-c.n%4)
				}
			}
		}
	})
}

func TestAVX2WalkKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, _ tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(12)}
		for ci, c := range kernelCases() {
			g.special = c.special
			s, outer := g.row(c.n, c.off), g.row(c.n, c.off)
			for _, p := range c.tiny {
				s.shrink(p)
			}
			m := &ms[ci%len(ms)]
			want, got := s.clone(), s.clone()
			walkScalar(want.view, outer.view, m, 0, c.n)
			evalWalk(got.view, outer.view, m, c.n)
			sameRows(t, c.name+" s", want, got)
			if !c.special && c.tiny == nil {
				if done := walkVec(s.view, outer.view, m, 0, c.n); done != c.n-c.n%4 {
					t.Fatalf("%s: vector kernel finished %d patterns, want %d", c.name, done, c.n-c.n%4)
				}
			}
		}
	})
}

func TestAVX2LiftKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, _ tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(13)}
		for ci, c := range kernelCases() {
			if c.tiny != nil {
				continue // the lift never rescales
			}
			g.special = c.special
			v, o := g.row(c.n, c.off), g.row(c.n, c.off)
			m := &ms[ci%len(ms)]
			want, got := o.clone(), o.clone()
			liftScalar(v.view, want.view, m, 0, c.n)
			evalLift(v.view, got.view, m, c.n)
			sameRows(t, c.name+" outer", want, got)
			if done := liftVec(v.view, got.view, m, c.n); done != c.n-c.n%4 {
				t.Fatalf("%s: vector kernel finished %d patterns, want %d", c.name, done, c.n-c.n%4)
			}
		}
	})
}

// TestAVX2NeighbourhoodBits compares the neighbourhood's two node passes
// through the target row at each vector tier with the same passes at the
// scalar tier. Rescale groups are placed at the target (shrunk children)
// and, shifted by one group, at the parent (a shrunk clean child).
func TestAVX2NeighbourhoodBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(14)}
		for ci, c := range kernelCases() {
			g.special = c.special
			l, r, cv, o := g.row(c.n, c.off), g.row(c.n, c.off), g.row(c.n, c.off), g.row(c.n, c.off)
			tgt := g.row(c.n, 0)
			for _, p := range c.tiny {
				l.shrink(p)
				r.shrink(p)
				cv.shrink((p + 4) % (c.n - c.n%4))
			}
			pr := &waveProp{tm0: ms[ci%4], tm1: ms[(ci+1)%4], pmPhi: ms[(ci+2)%4], pmClean: ms[(ci+3)%4]}
			want, got := o.clone(), o.clone()
			kernelTier = tierScalar
			evalNeighbourhood(pr, l.view, r.view, cv.view, tgt.clone().view, want.view, c.n)
			kernelTier = vec
			evalNeighbourhood(pr, l.view, r.view, cv.view, tgt.clone().view, got.view, c.n)
			sameRows(t, c.name+" parent", want, got)
		}
	})
}

// TestKernelTier logs the tier package init detected, so a -v run
// shows which tier subtests of the kernel suites ran and which skipped,
// and checks that KernelTier names the tier a test forces.
func TestKernelTier(t *testing.T) {
	t.Logf("detected kernel tier: %s", KernelTier())
	if KernelTier() != detectedTier.String() {
		t.Fatalf("KernelTier() = %q before any forcing, detected %s", KernelTier(), detectedTier)
	}
	runTiers(t, allTiers, func(t *testing.T, tr tier) {
		if got := KernelTier(); got != tr.String() {
			t.Fatalf("KernelTier() = %q with the %s tier forced", got, tr)
		}
	})
}

// TestAVX2EightGroupBoundary checks the seams of the AVX512 tier's
// dispatch (8-pattern groups, then one AVX2 4-pattern group, then the
// scalar tail) at each vector tier against the scalar loops: every
// length mod 8, lane strides wider than n, and one rescale lane in the
// lower or the upper half of the first, middle or last 8-pattern group.
// Node and walk must stop exactly at the 4-pattern group holding the
// rescale lane. The root contraction gets a bail-out lane (0, a
// subnormal, +Inf or NaN) at the same places and on either side of the
// rootChunk edge; its terms, its sum and where its vector kernels stop
// must match the scalar rule (checkRoot).
func TestAVX2EightGroupBoundary(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(18)}
		for _, n := range []int{8, 9, 10, 11, 12, 13, 14, 15, 64, 65, 66, 67, 68, 69, 70, 71} {
			groups := n / 8
			places := []int{-1}
			for _, grp := range slices.Compact([]int{0, groups / 2, groups - 1}) {
				for half := 0; half < 2; half++ {
					places = append(places, 8*grp+4*half+(grp+half)%4)
				}
			}
			for _, stride := range []int{n + 1, 2*n + 3, 3*n + 8} {
				for _, off := range []int{0, 3} {
					for ci, p := range places {
						name := fmt.Sprintf("n=%d/stride=%d/off=%d/rescale=%d", n, stride, off, p)
						stop := n - n%4
						if p >= 0 {
							stop = p - p%4
						}
						m0, m1 := &ms[ci%len(ms)], &ms[(ci+1)%len(ms)]
						l, r, o := g.rowStride(n, off, stride), g.rowStride(n, off, stride), g.rowStride(n, off, stride)
						s, outer := g.rowStride(n, off, stride), g.rowStride(n, off, stride)
						if p >= 0 {
							l.shrink(p)
							r.shrink(p)
							s.shrink(p)
						}

						want, got := o.clone(), o.clone()
						nodeScalar(l.view, r.view, want.view, m0, m1, 0, n)
						evalNode(l.view, r.view, got.view, m0, m1, n)
						sameRows(t, name+" node", want, got)
						if done := nodeVec(l.view, r.view, o.clone().view, m0, m1, 0, n); done != stop {
							t.Fatalf("%s: node kernel finished %d patterns, want %d", name, done, stop)
						}

						want, got = s.clone(), s.clone()
						walkScalar(want.view, outer.view, m0, 0, n)
						evalWalk(got.view, outer.view, m0, n)
						sameRows(t, name+" walk", want, got)
						if done := walkVec(s.clone().view, outer.view, m0, 0, n); done != stop {
							t.Fatalf("%s: walk kernel finished %d patterns, want %d", name, done, stop)
						}

						want, got = o.clone(), o.clone()
						liftScalar(l.view, want.view, m1, 0, n)
						evalLift(l.view, got.view, m1, n)
						sameRows(t, name+" lift", want, got)
					}
					for _, p := range append(places, rootChunk-1, rootChunk) {
						for _, edge := range []float64{0, 5e-324, math.Inf(1), math.NaN()} {
							if p >= n || p < 0 && edge != 0 {
								continue // the case without a bail-out lane runs once
							}
							r := g.rowStride(n, off, stride)
							if p >= 0 {
								setLikelihood(r.view, p, edge)
							}
							pc := make([]float64, n)
							for i := range pc {
								pc[i] = float64(1 + g.src.Uint32()%5)
							}
							name := fmt.Sprintf("n=%d/stride=%d/off=%d/bail=%v@%d", n, stride, off, edge, p)
							checkRoot(t, vec, name+" root", r.view, pc, &[4]float64{1, 0.25, 0.375, 0.125}, n)
						}
					}
				}
			}
		}
	})
}

// TestAVX2RescaleDecision pins the vector kernels' rescale test to the
// scalar rule group by group. The bit comparisons above catch a group
// the vector code wrongly keeps; this also catches one it wrongly hands
// to the scalar loop, which would cost speed but not bits. With identity
// matrices and all-ones partner rows, each state's value is the dot
// product of the row itself, so the test can evaluate the scalar rule
// (`if w > maxv` from +0, then maxv < 1e-150 && maxv > 0) on the exact
// values the kernel sees: ±0, subnormals, 1e-150 and its neighbours,
// +Inf and NaN.
func TestAVX2RescaleDecision(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, _ tier) {
		var id subst.Matrix
		for x := range id {
			id[x][x] = 1
		}
		values := append([]float64{0.5, 1e-160, math.Nextafter(rescaleThreshold, 0), math.Nextafter(rescaleThreshold, 1)}, kernelSpecials...)
		const n = 4 * 256
		g := &kernelGen{src: rng.NewMT19937(15)}
		in, ones := g.row(n, 0), g.row(n, 0)
		for i := range ones.cond {
			ones.cond[i] = 1
		}
		for p := 0; p < n; p++ {
			benign := (p/4)%2 == 0 && g.src.Uint32()%2 == 0
			for x := 0; x < nStates; x++ {
				v := 0.5
				if !benign {
					v = values[g.src.Uint32()%uint32(len(values))]
				}
				in.view.cond[x*in.view.stride+p] = v
			}
		}
		rescale := make([]bool, n/4)
		for p := 0; p < n; p++ {
			var u [nStates]float64
			for x := range u {
				u[x] = in.view.cond[x*in.view.stride+p]
			}
			maxv := 0.0
			for x := 0; x < nStates; x++ {
				w := (id[x][0]*u[0] + id[x][1]*u[1] + id[x][2]*u[2] + id[x][3]*u[3]) * 1
				if w > maxv {
					maxv = w
				}
			}
			if maxv < rescaleThreshold && maxv > 0 {
				rescale[p/4] = true
			}
		}
		for _, k := range []struct {
			name string
			run  func(i int) int
		}{
			{"node", func(i int) int { return nodeVec(in.view, ones.view, g.row(n, 0).view, &id, &id, i, n) }},
			{"walk", func(i int) int { return walkVec(in.clone().view, ones.view, &id, i, n) }},
		} {
			name, run := k.name, k.run
			stops := 0
			for grp := 0; grp < n/4; {
				next := grp
				for next < n/4 && !rescale[next] {
					next++
				}
				if got := grp*4 + run(grp*4); got != next*4 {
					t.Fatalf("%s kernel from pattern %d stopped at %d, want %d", name, grp*4, got, next*4)
				}
				if next < n/4 {
					stops++
				}
				grp = next + 1
			}
			if stops == 0 || stops == n/4 {
				t.Fatalf("%s: %d of %d groups rescale; the fixture must mix both", name, stops, n/4)
			}
		}
	})
}

// rootEdges are the likelihoods placed in bail-out and boundary lanes of
// the root contraction: archLog's special cases and both ends of the
// vector kernels' range [2^-1022, MaxFloat64]. The first six and the
// last two must bail out to the scalar loop; 2^-1022 and MaxFloat64 must
// not.
var rootEdges = []float64{0, math.Copysign(0, -1), -0.75, 5e-324, math.Float64frombits(0x000fffffffffffff),
	0x1p-1022, math.MaxFloat64, math.Inf(1), math.NaN()}

// rootInRange reports whether the vector kernels take a group whose
// lane likelihood is x.
func rootInRange(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

// TestAVX2RootKernelBits compares evalRoot with the vector kernels on
// and off, bit for bit, over every length mod 4, view offset and lane
// stride (wider than n, as a wave cell's block rows and the delta
// path's node-major rows are), with edge likelihoods in the first,
// middle and last group. With frequency 1 on state 0 and the other
// states ±0, an edge lane's likelihood is exactly the edge value. It
// also compares every pattern's term and checks where the vector
// kernels alone stop (checkRoot).
func TestAVX2RootKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		freqSets := []*[4]float64{{0.1, 0.2, 0.3, 0.4}, {1, 0.25, 0.375, 0.125}}
		g := &kernelGen{src: rng.NewMT19937(16)}
		for _, n := range kernelLengths {
			groups := n / 4
			places := [][]int{nil}
			if groups > 0 {
				at := func(grp int) int { return 4*grp + grp%4 }
				places = append(places, []int{at(0)}, []int{at(groups / 2)}, []int{at(groups - 1)}, []int{at(0), at(groups / 2), at(groups - 1)})
			}
			for off := 0; off < 4; off++ {
				for _, special := range []bool{false, true} {
					for _, edges := range places {
						for _, edge := range rootEdges {
							if edges == nil && edge != 0 {
								continue // the case without edge lanes runs once
							}
							for fi, f := range freqSets {
								g.special = special
								name := fmt.Sprintf("n=%d/off=%d/special=%v/edges=%v@%v/f=%d", n, off, special, edge, edges, fi)
								r := g.row(n, off)
								for i := range r.scale {
									r.scale[i] = -40 * g.src.Float64()
								}
								for _, p := range edges {
									setLikelihood(r.view, p, edge)
								}
								pc := make([]float64, off+n)
								for i := range pc {
									pc[i] = float64(1 + g.src.Uint32()%5)
								}
								pc = pc[off:]
								checkRoot(t, vec, name, r.view, pc, f, n)
							}
						}
					}
				}
			}
		}
		// One pattern at a time: with zero scales and a single nonzero count,
		// the sum is exactly that pattern's log likelihood, so a one-ulp
		// difference in one lane's contraction or log cannot round away in
		// the sum, as it can beside a scale of order −20.
		g.special = false
		const n = 1024
		r := g.row(n, 1)
		clear(r.scale)
		one := make([]float64, n)
		for p := range one {
			one[p] = 1
			checkRoot(t, vec, fmt.Sprintf("pattern %d alone", p), r.view, one, freqSets[0], n)
			one[p] = 0
		}
	})
}

// setLikelihood makes pattern p's likelihood under frequencies with
// f[0] = 1 exactly x: state lane 0 holds x and the others zero of x's
// sign.
func setLikelihood(v rowView, p int, x float64) {
	v.cond[p] = x
	for s := 1; s < nStates; s++ {
		v.cond[s*v.stride+p] = math.Copysign(0, x)
	}
}

// checkRoot runs one root-contraction case at vector tier vec against
// the scalar tier: every pattern's term and the sum, bit for bit, and
// the pattern rootVec alone stops at (rootStop).
func checkRoot(t *testing.T, vec tier, name string, v rowView, pc []float64, f *[4]float64, n int) {
	t.Helper()
	want, got := make([]float64, n), make([]float64, n)
	kernelTier = tierScalar
	wantSum := evalRoot(v, pc, f, n)
	rootTerms(v, pc, f, 0, n, want)
	kernelTier = vec
	gotSum := evalRoot(v, pc, f, n)
	rootTerms(v, pc, f, 0, n, got)
	sameBits(t, name+" terms", want, got)
	if math.Float64bits(wantSum) != math.Float64bits(gotSum) && !(math.IsNaN(wantSum) && math.IsNaN(gotSum)) {
		t.Fatalf("%s: scalar %v (%#x), vector %v (%#x)", name, wantSum, math.Float64bits(wantSum), gotSum, math.Float64bits(gotSum))
	}
	if done, stop := rootVec(v, pc, f, 0, n, make([]float64, n)), rootStop(vec, v, f, n); done != stop {
		t.Fatalf("%s: vector kernels finished %d patterns, want %d", name, done, stop)
	}
}

// rootStop returns the pattern rootVec must stop at over [0, n) at
// vector tier vec: the start of the first group holding a likelihood
// the vector kernels must not take, in whole 8-pattern groups first at
// the avx512 tier and then 4-pattern groups, or the end of the last
// whole group.
func rootStop(vec tier, v rowView, f *[4]float64, n int) int {
	bails := func(lo, hi int) bool {
		for p := lo; p < hi; p++ {
			siteL := f[0]*v.cond[p] + f[1]*v.cond[v.stride+p] + f[2]*v.cond[2*v.stride+p] + f[3]*v.cond[3*v.stride+p]
			if !rootInRange(siteL) {
				return true
			}
		}
		return false
	}
	i := 0
	for w := 8; w >= 4; w -= 4 {
		if w == 8 && vec != tierAVX512 {
			continue
		}
		for ; n-i >= w; i += w {
			if bails(i, i+w) {
				return i
			}
		}
	}
	return i
}

// TestAVX2LogMatchesMathLog checks the vector kernels' log against
// math.Log, bit for bit, at each vector tier, over random normal bit
// patterns, [0.5, 2), the ulps around √2/2 in every binade (1000 either
// side in every 8th, 16 in the rest), and every power of two with its
// neighbours. At a mantissa of exactly √2/2 archLog's reduction halves
// f1's exponent and math/log.go's pure-Go rule does not; the two differ
// at √2/2·2^32. Each value sits in one lane of a vector group whose
// other lanes are 1 (log 1 = +0), with frequency 1 on state 0, zero
// scales and unit counts, so the lane's term is its log exactly. The
// lane rotates through the group: four lanes at avx2, eight at avx512.
func TestAVX2LogMatchesMathLog(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		w := 4
		if vec == tierAVX512 {
			w = 8
		}
		var cond [8 * nStates]float64
		var scale, terms [8]float64
		pc := []float64{1, 1, 1, 1, 1, 1, 1, 1}
		f := &[4]float64{1, 0, 0, 0}
		v := rowView{cond[:], scale[:], 8}
		checked := 0
		check := func(x float64) {
			lane := checked % w
			for j := 0; j < w; j++ {
				cond[j] = 1
			}
			cond[lane] = x
			if done := rootVec(v, pc, f, 0, w, terms[:w]); done != w {
				t.Fatalf("log(%v = %#x): vector kernel bailed out", x, math.Float64bits(x))
			}
			if want, got := math.Log(x), terms[lane]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("log(%v = %#x) in lane %d: math.Log %v (%#x), vector %v (%#x)",
					x, math.Float64bits(x), lane, want, math.Float64bits(want), got, math.Float64bits(got))
			}
			checked++
		}
		src := rng.NewMT19937(17)
		bits := func() uint64 { return uint64(src.Uint32())<<32 | uint64(src.Uint32()) }
		for i := 0; i < 1_500_000; i++ {
			exp := 1 + bits()%2046
			check(math.Float64frombits(exp<<52 | bits()&(1<<52-1)))
		}
		for i := 0; i < 1_000_000; i++ {
			check(0.5 + 1.5*src.Float64())
		}
		for e := -1021; e <= 1024; e++ {
			mid := math.Ldexp(math.Sqrt2/2, e)
			w := int64(16)
			if e%8 == 0 {
				w = 1000
			}
			for d := -w; d <= w; d++ {
				check(math.Float64frombits(uint64(int64(math.Float64bits(mid)) + d)))
			}
		}
		for e := -1022; e <= 1023; e++ {
			p := math.Ldexp(1, e)
			check(p)
			check(math.Nextafter(p, math.Inf(1)))
			if e > -1022 {
				check(math.Nextafter(p, 0))
			}
		}
		check(math.MaxFloat64)
		if checked < 3_000_000 {
			t.Fatalf("checked %d values, want at least 3e6", checked)
		}
	})
}

// cellFixture builds one wave cell's inputs without a tree: an
// evaluator over nPat patterns with block size bs at the production
// lane layout, and a wave bound to a root path of depth levels whose
// outer lanes, clean scale lanes and chain matrices are generated, like
// the candidate's three clean rows and five matrices. Counts are 1 to 5
// and the frequencies F81's of kernelMatrices.
func cellFixture(g *kernelGen, ms []subst.Matrix, nPat, bs, depth int) (*Wave, *waveProp) {
	st := laneStride(nPat)
	e := &Evaluator{nPatterns: nPat, stride: st, blockSize: bs, freqs: [4]float64{0.1, 0.2, 0.3, 0.4}}
	for range nPat {
		e.patCount = append(e.patCount, float64(1+g.src.Uint32()%5))
	}
	w := &Wave{e: e, path: make([]int, depth), chainMats: make([]subst.Matrix, depth)}
	w.outer = g.laneRow(depth * nStates * st).cond[:depth*nStates*st]
	for k := range depth {
		w.chainMats[k] = ms[(k+1)%len(ms)]
		w.cleanScale = append(w.cleanScale, g.laneRow(nPat).scale)
	}
	w.bindLevels()
	pr := &waveProp{tm0: ms[1], tm1: ms[2], pmPhi: ms[3], pmClean: ms[0], am: ms[2]}
	rows := [3]kernelRow{g.laneRow(nPat), g.laneRow(nPat), g.laneRow(nPat)}
	pr.tlc, pr.tls = rows[0].cond, rows[0].scale
	pr.trc, pr.trs = rows[1].cond, rows[1].scale
	pr.cvc, pr.cvs = rows[2].cond, rows[2].scale
	return w, pr
}

// cellBails reports whether pattern p of the cell must leave the fused
// kernel: some node of it has no state at or above rescaleThreshold, by
// the kernel's tree of maxima, or its root likelihood lies outside
// [2^-1022, MaxFloat64]. It evaluates the rule on the values the kernel
// sees, which are never rescaled before that point.
func cellBails(w *Wave, pr *waveProp, p int) bool {
	e := w.e
	row := func(cond []float64) (u [nStates]float64) {
		for x := range u {
			u[x] = cond[x*e.stride+p]
		}
		return u
	}
	dot := func(m *subst.Matrix, x int, u [nStates]float64) float64 {
		return m[x][0]*u[0] + m[x][1]*u[1] + m[x][2]*u[2] + m[x][3]*u[3]
	}
	// maxpd is VMAXPD's lane rule: the second operand unless the first
	// is greater, so a NaN in either yields the second.
	maxpd := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	rescales := func(v [nStates]float64) bool {
		return !(maxpd(maxpd(v[0], v[1]), maxpd(v[2], v[3])) >= rescaleThreshold)
	}
	var s [nStates]float64
	l, r := row(pr.tlc), row(pr.trc)
	for x := range s {
		s[x] = dot(&pr.tm0, x, l) * dot(&pr.tm1, x, r)
	}
	if rescales(s) {
		return true
	}
	t, c := s, row(pr.cvc)
	for x := range s {
		s[x] = dot(&pr.pmPhi, x, t) * dot(&pr.pmClean, x, c)
	}
	if rescales(s) {
		return true
	}
	for k := range w.path {
		m := &pr.am
		if k > 0 {
			m = &w.chainMats[k]
		}
		u, o := s, row(e.rowLanes(w.outer, nStates, k))
		for x := range s {
			s[x] = dot(m, x, u) * o[x]
		}
		if rescales(s) {
			return true
		}
	}
	f := e.freqs
	return !rootInRange(f[0]*s[0] + f[1]*s[1] + f[2]*s[2] + f[3]*s[3])
}

// TestAVX2CellKernelBits compares cellSum at each vector tier, where
// the avx512 tier runs the fused cell kernel, with cellSum at the scalar
// tier, which runs the staged path alone: every pattern's root term and
// the block sum, bit for bit, and at avx512 the pattern where the fused
// kernel stops (cellBails). A block of n = 24..31 patterns (n%8 = 0..7)
// from an 8-aligned and an unaligned lo sits behind a first block, at
// root-path depths 0 (the root case), 1, 2 and 5 (the kernel walks two
// levels per iteration). Each case plants one lane at one stage in the
// first, middle or last 8-pattern group: all four states of the stage's
// input row (the target's left child, the parent's clean child or a
// level's outer row), or state 0 of the last stage's input row (the
// root stage), set to 0, 5e-324, +Inf or NaN, or scaled by 1e-160 to a
// rescale-size value. A rescale-size plant is scaled back by 1e160 at
// the next node, so a stage whose rescale test is missing is not
// rescued by the next one.
func TestAVX2CellKernelBits(t *testing.T) {
	forEachVectorTier(t, func(t *testing.T, vec tier) {
		ms := kernelMatrices(t)
		g := &kernelGen{src: rng.NewMT19937(19)}
		const tiny = -1 // the rescale-size plant
		plants := []float64{tiny, 0, 5e-324, math.Inf(1), math.NaN()}
		for _, bs := range []int{128, 27} {
			for _, depth := range []int{0, 1, 2, 5} {
				for r := range 8 {
					n := 24 + r
					// Stage 0 is the target, 1 the parent, 2+k walk level k
					// and 2+depth the root; stage -1 plants nothing.
					for stage := -1; stage <= 2+depth; stage++ {
						for grp := range 3 {
							for _, v := range plants {
								if stage < 0 && (grp > 0 || v != tiny) {
									continue // the case without a plant runs once
								}
								name := fmt.Sprintf("bs=%d/depth=%d/n=%d/stage=%d/group=%d/plant=%v", bs, depth, n, stage, grp, v)
								w, pr := cellFixture(g, ms, bs+n, bs, depth)
								p := bs + 8*grp + (3*grp+stage+8)%8
								// input returns node stage k's input row, k ≤ 1+depth.
								input := func(k int) []float64 {
									switch k {
									case 0:
										return pr.tlc
									case 1:
										return pr.cvc
									}
									return w.e.rowLanes(w.outer, nStates, k-2)
								}
								plant := func(k, states int, scale, v float64) {
									for x := range states {
										if v == tiny {
											input(k)[x*w.e.stride+p] *= scale
										} else {
											input(k)[x*w.e.stride+p] = v
										}
									}
								}
								switch {
								case stage == 2+depth:
									plant(1+depth, 1, 1e-160, v)
								case stage >= 0:
									plant(stage, nStates, 1e-160, v)
									if v == tiny && stage < 1+depth {
										plant(stage+1, nStates, 1e160, v)
									}
								}
								checkCell(t, vec, name, w, pr)
							}
						}
					}
				}
			}
		}
	})
}

// checkCell runs every block of one cell fixture at vector tier vec and
// at the scalar tier and compares their terms and sums, and at the
// avx512 tier where the fused kernel stops in each block.
func checkCell(t *testing.T, vec tier, name string, w *Wave, pr *waveProp) {
	t.Helper()
	e := w.e
	want, got := e.newWaveScratch(), e.newWaveScratch()
	for b := 0; b*e.blockSize < e.nPatterns; b++ {
		lo := b * e.blockSize
		hi := min(lo+e.blockSize, e.nPatterns)
		kernelTier = tierScalar
		wantSum := w.cellSum(pr, b, want)
		kernelTier = vec
		gotSum := w.cellSum(pr, b, got)
		sameBits(t, fmt.Sprintf("%s block %d terms", name, b), want.terms[:hi-lo], got.terms[:hi-lo])
		sameBits(t, fmt.Sprintf("%s block %d sum", name, b), []float64{wantSum}, []float64{gotSum})
		stop := lo
		if vec == tierAVX512 {
			stop = hi - (hi-lo)%8
			for p := lo; p < hi-(hi-lo)%8; p++ {
				if cellBails(w, pr, p) {
					stop = p - (p-lo)%8
					break
				}
			}
		}
		if done := w.cellVec(pr, lo, hi, make([]float64, hi-lo)); lo+done != stop {
			t.Fatalf("%s block %d: fused kernel stopped at pattern %d, want %d", name, b, lo+done, stop)
		}
	}
}
