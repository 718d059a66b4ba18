package felsen

// The lane layout of node-major rows (kernels.go): every state and scale
// lane of the tip table, the delta cache, the staged rows, the wave's
// outer lanes and its cell rows starts on a 64-byte boundary, and the
// pad entries past nPatterns are never read.

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/device"
	"mpcgs/internal/gtree"
	"mpcgs/internal/phylip"
	"mpcgs/internal/resim"
	"mpcgs/internal/rng"
	"mpcgs/internal/subst"
)

// distinctColumns returns an nSeq-sequence alignment of nSites columns
// that are all distinct, so it compresses to exactly nSites patterns:
// column j spells a different number below 4^nSeq in base 4.
func distinctColumns(nSeq, nSites int) *phylip.Alignment {
	aln := &phylip.Alignment{}
	for i := 0; i < nSeq; i++ {
		s := bitseq.New(nSites)
		for j := 0; j < nSites; j++ {
			code := (j * 2654435761) % (1 << (2 * nSeq)) // odd multiplier: a bijection
			s.Set(j, bitseq.Base(code>>(2*i)&3))
		}
		aln.Names = append(aln.Names, fmt.Sprint("s", i))
		aln.Seqs = append(aln.Seqs, s)
	}
	return aln
}

// checkLanes fails t unless every lane of block, one per stride
// entries, starts on a 64-byte boundary.
func checkLanes(t *testing.T, what string, block []float64, stride int) {
	t.Helper()
	if len(block)%stride != 0 {
		t.Fatalf("%s: %d entries is not a whole number of %d-entry lanes", what, len(block), stride)
	}
	for at := 0; at < len(block); at += stride {
		if addr := uintptr(unsafe.Pointer(&block[at])); addr%64 != 0 {
			t.Fatalf("%s: lane at entry %d starts at %#x, not on a 64-byte boundary", what, at, addr)
		}
	}
}

// poisonPads sets every pad entry of block's lanes, entries
// [nPat, stride) of each, to NaN.
func poisonPads(block []float64, nPat, stride int) {
	for at := 0; at < len(block); at += stride {
		for p := nPat; p < stride; p++ {
			block[at+p] = math.NaN()
		}
	}
}

// nanLanes is alignedLanes(n) filled with NaN.
func nanLanes(n int) []float64 {
	s := alignedLanes(n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// layoutRun is what one evaluator computes over the layout fixture.
type layoutRun struct {
	rebase float64
	staged []float64
	wave   []float64
	one    []float64
}

// TestLaneLayout checks, for nPatterns % 8 = 0..7 at every kernel tier
// and two block sizes, that every lane of the tip table, the cache, the
// staged rows, the wave's outer lanes and its cell rows starts on a
// 64-byte boundary, and that an evaluator whose pad entries are all NaN
// (every scratch row NaN throughout) computes Rebase, StageDelta and the
// wave's Eval and EvalOne bit-identically to a clean one.
func TestLaneLayout(t *testing.T) {
	ForEachTier(t, func(t *testing.T) {
		for k := 0; k < laneAlign; k++ {
			nSites := 40*laneAlign + k
			aln := distinctColumns(8, nSites)
			model, err := subst.NewF81(aln.BaseFreqs(), true)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.NewMT19937(uint32(31 + k))
			tree, err := gtree.RandomCoalescent(aln.Names, 1.0, src)
			if err != nil {
				t.Fatal(err)
			}
			phi := anyTarget(tree)
			scratch := resim.NewScratch()
			var props []*gtree.Tree
			for len(props) < 4 {
				p := tree.Clone()
				if resim.ResimulateScratch(p, phi, 1.0, src, scratch) == nil {
					props = append(props, p)
				}
			}
			for _, bs := range []int{DefaultBlockSize, 20} {
				name := fmt.Sprintf("nPatterns=%d/blockSize=%d", nSites, bs)
				var runs [2]layoutRun
				for i, poison := range []bool{false, true} {
					e, err := New(model, aln, device.New(2))
					if err != nil {
						t.Fatal(err)
					}
					e.SetBlockSize(bs)
					if e.nPatterns != nSites {
						t.Fatalf("%s: fixture compresses to %d patterns", name, e.nPatterns)
					}
					runs[i] = layoutEval(t, name, e, tree, phi, props, poison)
				}
				clean, poisoned := runs[0], runs[1]
				sameBits(t, name+" Rebase", []float64{clean.rebase}, []float64{poisoned.rebase})
				sameBits(t, name+" StageDelta", clean.staged, poisoned.staged)
				sameBits(t, name+" Wave.Eval", clean.wave, poisoned.wave)
				sameBits(t, name+" Wave.EvalOne", clean.one, poisoned.one)
				sameBits(t, name+" Wave.Eval vs StageDelta", clean.staged, clean.wave)
				for _, ll := range clean.wave {
					if math.IsNaN(ll) || math.IsInf(ll, 0) {
						t.Fatalf("%s: candidate log-likelihood %v", name, ll)
					}
				}
			}
		}
	})
}

// layoutEval runs TestLaneLayout's evaluations on e, checking the lane
// alignment of every row block it touches. With poison, every pad entry
// of the tip table and the cache is NaN, and every staged row, outer
// lane and cell row is NaN until a kernel writes it.
func layoutEval(t *testing.T, name string, e *Evaluator, tree *gtree.Tree, phi int, props []*gtree.Tree, poison bool) layoutRun {
	t.Helper()
	nPat, st := e.nPatterns, e.stride
	if st%laneAlign != 0 || st < nPat || st-nPat >= laneAlign {
		t.Fatalf("%s: lane stride %d for %d patterns", name, st, nPat)
	}
	nInt := len(e.seqs) - 1
	if poison {
		poisonPads(e.tipCond, nPat, st)
		poisonPads(e.zeroScale, nPat, st)
		newDelta, newWave := e.deltaPool.New, e.wavePool.New
		e.deltaPool.New = func() any {
			ds := newDelta().(*deltaScratch)
			ds.cond, ds.scale = nanLanes(nInt*nStates*st), nanLanes(nInt*st)
			return ds
		}
		e.wavePool.New = func() any {
			ws := newWave().(*waveScratch)
			for _, s := range [][]float64{ws.cond, ws.scale, ws.tcond, ws.tscale} {
				for i := range s {
					s[i] = math.NaN()
				}
			}
			return ws
		}
	}
	checkLanes(t, name+" tip table", e.tipCond, st)
	checkLanes(t, name+" zero scale", e.zeroScale, st)

	c := e.NewDeltaCache()
	if poison {
		poisonPads(c.cond, nPat, st)
		poisonPads(c.scale, nPat, st)
	}
	checkLanes(t, name+" cache cond", c.cond, st)
	checkLanes(t, name+" cache scale", c.scale, st)
	var r layoutRun
	r.rebase = e.Rebase(c, tree)

	for _, p := range props {
		d := e.StageDelta(c, p)
		if d.ds == nil {
			t.Fatalf("%s: candidate equals the base", name)
		}
		checkLanes(t, name+" staged cond", d.ds.cond, st)
		checkLanes(t, name+" staged scale", d.ds.scale, st)
		r.staged = append(r.staged, d.LogLik())
		d.Discard()
	}

	w := e.NewWave(c)
	if poison {
		w.outer = nanLanes(nInt * nStates * st)
	}
	w.BindRound(phi)
	checkLanes(t, name+" outer lanes", w.outer, st)
	r.wave = make([]float64, len(props))
	w.Eval(props, r.wave)
	for _, p := range props {
		r.one = append(r.one, w.EvalOne(p))
	}
	ws := e.wavePool.Get().(*waveScratch)
	cst := laneStride(e.blockSize)
	for _, s := range [][]float64{ws.cond, ws.scale, ws.tcond, ws.tscale} {
		checkLanes(t, name+" cell row", s, cst)
	}
	e.wavePool.Put(ws)
	return r
}
