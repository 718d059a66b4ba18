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
