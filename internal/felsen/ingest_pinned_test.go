package felsen_test

// Pinned ingest outputs: for fixed alignments, an FNV hash of everything
// set-up derives from the PHYLIP text — names, decoded sequences, base
// frequencies, the distance matrix, the UPGMA starting tree and the
// evaluator's site patterns. A change to how the packed alignment is read
// (parser, bit kernels, pattern compression) must leave every hash as it
// is.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mpcgs/internal/core"
	"mpcgs/internal/felsen"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// handInterleaved exercises gaps, N, ?, lower case and U across an
// interleaved layout with a 40 % 32 tail.
const handInterleaved = `4 40
Homo      ACGTACGTAC GTAC-GTACG
Pan       acgtNNGTAC gtacgtacgu
Gorilla   ACGUACG?AC GTACGTAC-G
Pongo     ACGTAC-TAC GTAAGTTCGG

TTGCA-CCAT NNGGTCAAGT
ttgcaaccat ccggtcaagt
UUGCAACC?T CCGGTCAAGA
TTGCAACCAT CCGGTCTAGT
`

func ingestHash(t *testing.T, phy []byte) uint64 {
	t.Helper()
	aln, err := phylip.Read(bytes.NewReader(phy))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putS := func(s string) {
		putU(uint64(len(s)))
		h.Write([]byte(s))
	}
	for i, name := range aln.Names {
		putS(name)
		putS(aln.Seqs[i].String())
	}
	freqs := aln.BaseFreqs()
	for _, f := range freqs {
		putU(math.Float64bits(f))
	}
	for _, row := range aln.DistanceMatrix() {
		for _, d := range row {
			putU(math.Float64bits(d))
		}
	}
	init, err := core.InitialTree(aln, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	putS(init.String())
	model, err := subst.NewF81(freqs, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := felsen.New(model, aln, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, count, base := felsen.Patterns(e)
	putU(uint64(n))
	for _, c := range count {
		putU(math.Float64bits(c))
	}
	for _, row := range base {
		h.Write(row)
	}
	return h.Sum64()
}

func simulatedPhylip(t *testing.T, nSeq, length int, seed uint64) []byte {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, length, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := phylip.Write(&buf, aln); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestPinned(t *testing.T) {
	cases := []struct {
		name string
		phy  func(t *testing.T) []byte
		want uint64
	}{
		// The benchmark's three estimation shapes.
		{"32x4000", func(t *testing.T) []byte { return simulatedPhylip(t, 32, 4000, 11) }, 0xcc205c1d4bf5797d},
		{"12x200", func(t *testing.T) []byte { return simulatedPhylip(t, 12, 200, 12) }, 0x5d121de6aa60d3b8},
		{"12x1000", func(t *testing.T) []byte { return simulatedPhylip(t, 12, 1000, 13) }, 0x17e2e2f3c39499ea},
		{"hand-interleaved", func(*testing.T) []byte { return []byte(handInterleaved) }, 0x2d6749841b6ad544},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ingestHash(t, c.phy(t)); got != c.want {
				t.Errorf("ingest hash %#x, want %#x", got, c.want)
			}
		})
	}
}
