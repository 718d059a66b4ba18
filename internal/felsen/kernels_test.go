package felsen

// Bit-identity of the AVX2 pattern kernels (kernels_amd64.s) with their
// scalar twins (kernels.go). Every case runs the scalar loop and the
// vector dispatch on identical copies of the same rows and compares the
// whole backing arrays with math.Float64bits (see sameBits for NaN
// payloads), so a wrong lane, a stray
// write outside [0, n) or a differently rounded value all fail. The
// cases cover every length mod 4, every start offset mod 4 (a block's lo
// with a block size that is not a multiple of 4), rescale groups at the
// first, middle and last group position, and the values 0, −0,
// subnormals, exactly 1e-150, +Inf and NaN.

import (
	"fmt"
	"math"
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
	stride := off + n + 5
	r := kernelRow{cond: make([]float64, 3*stride+off+n), scale: make([]float64, off+n)}
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
	SetUseAVX2(t, true)
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
}

func TestAVX2WalkKernelBits(t *testing.T) {
	SetUseAVX2(t, true)
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
}

func TestAVX2LiftKernelBits(t *testing.T) {
	SetUseAVX2(t, true)
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
}

// TestAVX2NeighbourhoodBits compares the vector path's two node passes
// through the target row with the scalar path's fused loop. Rescale
// groups are placed at the target (shrunk children) and, shifted by one
// group, at the parent (a shrunk clean child).
func TestAVX2NeighbourhoodBits(t *testing.T) {
	SetUseAVX2(t, true)
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
		useAVX2 = false
		evalNeighbourhood(pr, l.view, r.view, cv.view, tgt.clone().view, want.view, c.n)
		useAVX2 = true
		evalNeighbourhood(pr, l.view, r.view, cv.view, tgt.clone().view, got.view, c.n)
		sameRows(t, c.name+" parent", want, got)
	}
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
	SetUseAVX2(t, true)
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
}

// rootEdges are the likelihoods placed in bail-out and boundary lanes of
// the root contraction: archLog's special cases and both ends of the
// vector kernel's range [2^-1022, MaxFloat64]. The first six and the
// last two must bail out to the scalar loop; 2^-1022 and MaxFloat64 must
// not.
var rootEdges = []float64{0, math.Copysign(0, -1), -0.75, 5e-324, math.Float64frombits(0x000fffffffffffff),
	0x1p-1022, math.MaxFloat64, math.Inf(1), math.NaN()}

// rootInRange reports whether the vector kernel takes a group whose
// lane likelihood is x.
func rootInRange(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

// TestAVX2RootKernelBits compares evalRoot with the AVX2 kernels on and
// off, bit for bit, over every length mod 4, view offset and lane
// stride (wider than n, as a wave cell's block rows and the delta
// path's nPatterns rows are), with edge likelihoods in the first,
// middle and last group. With frequency 1 on state 0 and the other
// states ±0, an edge lane's likelihood is exactly the edge value. It
// also checks that the vector kernel alone stops exactly at the first
// group it must not take, and compares every pattern's term alone.
func TestAVX2RootKernelBits(t *testing.T) {
	SetUseAVX2(t, true)
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
								r.view.cond[p] = edge
								for x := 1; x < nStates; x++ {
									r.view.cond[x*r.view.stride+p] = math.Copysign(0, edge)
								}
							}
							pc := make([]float64, off+n)
							for i := range pc {
								pc[i] = float64(1 + g.src.Uint32()%5)
							}
							pc = pc[off:]
							checkRoot(t, name, r.view, pc, f, n)
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
		checkRoot(t, fmt.Sprintf("pattern %d alone", p), r.view, one, freqSets[0], n)
		one[p] = 0
	}
}

// checkRoot runs one TestAVX2RootKernelBits case.
func checkRoot(t *testing.T, name string, v rowView, pc []float64, f *[4]float64, n int) {
	t.Helper()
	useAVX2 = false
	want := evalRoot(v, pc, f, n)
	useAVX2 = true
	got := evalRoot(v, pc, f, n)
	if math.Float64bits(want) != math.Float64bits(got) && !(math.IsNaN(want) && math.IsNaN(got)) {
		t.Fatalf("%s: scalar %v (%#x), vector %v (%#x)", name, want, math.Float64bits(want), got, math.Float64bits(got))
	}
	stop := n - n%4
	for p := 0; p < n-n%4; p++ {
		siteL := f[0]*v.cond[p] + f[1]*v.cond[v.stride+p] + f[2]*v.cond[2*v.stride+p] + f[3]*v.cond[3*v.stride+p]
		if !rootInRange(siteL) {
			stop = p - p%4
			break
		}
	}
	if _, done := rootVec(v, pc, f, 0, 0, n); done != stop {
		t.Fatalf("%s: vector kernel finished %d patterns, want %d", name, done, stop)
	}
}

// TestAVX2LogMatchesMathLog checks the vector kernel's log against
// math.Log, bit for bit, over random normal bit patterns, [0.5, 2), the
// ulps around √2/2 in every binade (1000 either side in every 8th, 16
// in the rest), and every power of two with its neighbours. At a
// mantissa of exactly √2/2 archLog's reduction halves f1's exponent and
// math/log.go's pure-Go rule does not; the two differ at √2/2·2^32. Each value sits in
// one lane of a group whose other lanes are 1 (log 1 = +0), with
// frequency 1 on state 0, zero scales and unit counts, so the kernel's
// sum is the lane's log exactly. The lane rotates through all four.
func TestAVX2LogMatchesMathLog(t *testing.T) {
	SetUseAVX2(t, true)
	var cond, scale [4 * nStates]float64
	pc := []float64{1, 1, 1, 1}
	f := &[4]float64{1, 0, 0, 0}
	v := rowView{cond[:], scale[:], 4}
	checked := 0
	check := func(x float64) {
		lane := checked % 4
		for j := 0; j < 4; j++ {
			cond[j] = 1
		}
		cond[lane] = x
		got, done := rootVec(v, pc, f, 0, 0, 4)
		if done != 4 {
			t.Fatalf("log(%v = %#x): vector kernel bailed out", x, math.Float64bits(x))
		}
		if want := math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
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
}
