package felsen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcgs/internal/bitseq"
	"mpcgs/internal/phylip"
	"mpcgs/internal/subst"
)

// compressPatternsOracle is the per-site pattern build compressPatterns
// replaced: one At call per sequence per site.
func compressPatternsOracle(seqs []*bitseq.Seq, nSites int) (count []float64, base [][]uint8) {
	base = make([][]uint8, len(seqs))
	index := map[string]int{}
	key := make([]byte, len(seqs))
	for site := 0; site < nSites; site++ {
		for i, sq := range seqs {
			if b, known := sq.At(site); known {
				key[i] = uint8(b)
			} else {
				key[i] = 4
			}
		}
		if pat, ok := index[string(key)]; ok {
			count[pat]++
			continue
		}
		index[string(key)] = len(count)
		count = append(count, 1)
		for i := range base {
			base[i] = append(base[i], key[i])
		}
	}
	return count, base
}

func TestCompressPatternsMatchesPerSite(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		nSeq, L := 2+r.Intn(7), 1+r.Intn(150)
		aln := &phylip.Alignment{}
		for i := 0; i < nSeq; i++ {
			s := bitseq.New(L)
			for j := 0; j < L; j++ {
				// Few states so columns repeat; a gap sometimes over
				// stale code bits.
				s.Set(j, bitseq.Base(r.Intn(2)*3))
				if r.Intn(6) == 0 {
					s.SetUnknown(j)
				}
			}
			aln.Names = append(aln.Names, fmt.Sprint("s", i))
			aln.Seqs = append(aln.Seqs, s)
		}
		e, err := New(subst.NewJC69(), aln, nil)
		if err != nil {
			t.Fatal(err)
		}
		count, base := compressPatternsOracle(aln.Seqs, L)
		if e.nPatterns != len(count) || !slices.Equal(e.patCount, count) {
			t.Fatalf("%dx%d: %d patterns %v, per-site %d %v", nSeq, L, e.nPatterns, e.patCount, len(count), count)
		}
		for i := range base {
			if !slices.Equal(e.patBase[i], base[i]) {
				t.Fatalf("%dx%d: tip %d codes %v, per-site %v", nSeq, L, i, e.patBase[i], base[i])
			}
			row := e.rowLanes(e.tipCond, nStates, i)
			for pat, code := range base[i] {
				for x := 0; x < nStates; x++ {
					want := 0.0
					if code == 4 || int(code) == x {
						want = 1
					}
					if row[x*e.stride+pat] != want {
						t.Fatalf("%dx%d: tip %d pattern %d lane %d = %v, want %v", nSeq, L, i, pat, x, row[x*e.stride+pat], want)
					}
				}
			}
		}
	}
}
