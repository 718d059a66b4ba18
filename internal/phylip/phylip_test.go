package phylip

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mpcgs/internal/bitseq"
)

func mustRead(t *testing.T, in string) *Alignment {
	t.Helper()
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return a
}

func TestReadSequentialOneLine(t *testing.T) {
	in := "3 8\nseqA  ACGTACGT\nseqB  ACGTACGA\nseqC  TTTTACGT\n"
	a := mustRead(t, in)
	if a.NSeq() != 3 || a.SeqLen() != 8 {
		t.Fatalf("NSeq=%d SeqLen=%d, want 3 8", a.NSeq(), a.SeqLen())
	}
	if a.Names[0] != "seqA" || a.Names[2] != "seqC" {
		t.Errorf("names = %v", a.Names)
	}
	if got := a.Seqs[2].String(); got != "TTTTACGT" {
		t.Errorf("seqC = %q", got)
	}
}

func TestReadStrictTenColumnNames(t *testing.T) {
	// Strict PHYLIP: name occupies exactly 10 columns, possibly with
	// trailing spaces, data follows immediately.
	in := "2 4\nHomo sapieACGT\nPan troglo TTTT\n"
	a := mustRead(t, in)
	if a.Names[0] != "Homo sapie" {
		t.Errorf("name[0] = %q, want %q", a.Names[0], "Homo sapie")
	}
	if got := a.Seqs[0].String(); got != "ACGT" {
		t.Errorf("seq[0] = %q, want ACGT", got)
	}
	if a.Names[1] != "Pan troglo" {
		t.Errorf("name[1] = %q", a.Names[1])
	}
}

func TestReadInterleaved(t *testing.T) {
	in := `2 12
one   ACGTAC
two   TTTTTT
GTACGT
AAAAAA
`
	a := mustRead(t, in)
	if got := a.Seqs[0].String(); got != "ACGTACGTACGT" {
		t.Errorf("seq one = %q", got)
	}
	if got := a.Seqs[1].String(); got != "TTTTTTAAAAAA" {
		t.Errorf("seq two = %q", got)
	}
}

func TestReadSequentialWrapped(t *testing.T) {
	// Sequential with wrapping: seq one's data completes over two lines
	// before seq two is named. The named first block still lists both
	// names first, so wrapped layout interleaves identically here; check
	// a wrap where line lengths differ.
	in := `2 10
one   ACGTA
two   TTTTT
CGTAC
AAAAA
`
	a := mustRead(t, in)
	if got := a.Seqs[0].String(); got != "ACGTACGTAC" {
		t.Errorf("seq one = %q", got)
	}
	if got := a.Seqs[1].String(); got != "TTTTTAAAAA" {
		t.Errorf("seq two = %q", got)
	}
}

func TestReadSpacesInsideData(t *testing.T) {
	in := "2 8\na   ACGT ACGT\nb   TTTT TTTT\n"
	a := mustRead(t, in)
	if got := a.Seqs[0].String(); got != "ACGTACGT" {
		t.Errorf("seq a = %q", got)
	}
}

func TestReadGapsBecomeUnknown(t *testing.T) {
	in := "2 6\na   AC-GNT\nb   ACGGTT\n"
	a := mustRead(t, in)
	if a.Seqs[0].Known(2) || a.Seqs[0].Known(4) {
		t.Error("gap/N positions should be unknown")
	}
	if !a.Seqs[0].Known(0) {
		t.Error("position 0 should be known")
	}
}

// readErrorCases are inputs Read must refuse; they also seed FuzzRead.
var readErrorCases = map[string]string{
	"empty":          "",
	"bad header":     "three 8\nx ACGTACGT\n",
	"no length":      "3\n",
	"zero seqs":      "0 5\n",
	"short data":     "2 8\na ACGT\nb ACGTACGT\n",
	"long data":      "2 4\na ACGTA\nb ACGT\n",
	"missing lines":  "3 4\na ACGT\nb ACGT\n",
	"extra data":     "2 4\na ACGT\nb ACGT\nACGT\n",
	"duplicate name": "2 4\nsame ACGT\nsame ACGT\n",
}

func TestReadErrors(t *testing.T) {
	for label, in := range readErrorCases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error, got none", label)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	a := &Alignment{
		Names: []string{"alpha", "beta", "gamma"},
		Seqs: []*bitseq.Seq{
			bitseq.FromString("ACGTACGTAA"),
			bitseq.FromString("ACGTACGTTT"),
			bitseq.FromString("TTGTACGTAA"),
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read back: %v", err)
	}
	for i := range a.Seqs {
		if a.Names[i] != b.Names[i] {
			t.Errorf("name %d: %q != %q", i, a.Names[i], b.Names[i])
		}
		if a.Seqs[i].String() != b.Seqs[i].String() {
			t.Errorf("seq %d: %q != %q", i, a.Seqs[i].String(), b.Seqs[i].String())
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	letters := []byte("ACGT")
	f := func(seed int64, nseqRaw, lenRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nseq := 2 + int(nseqRaw)%6
		L := 1 + int(lenRaw)%40
		a := &Alignment{}
		for i := 0; i < nseq; i++ {
			var sb strings.Builder
			for j := 0; j < L; j++ {
				sb.WriteByte(letters[r.Intn(4)])
			}
			a.Names = append(a.Names, "s"+strings.Repeat("q", i+1))
			a.Seqs = append(a.Seqs, bitseq.FromString(sb.String()))
		}
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			return false
		}
		b, err := Read(&buf)
		if err != nil {
			return false
		}
		for i := range a.Seqs {
			if a.Seqs[i].String() != b.Seqs[i].String() || a.Names[i] != b.Names[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBaseFreqs(t *testing.T) {
	a := mustRead(t, "2 4\na   AACC\nb   GGTT\n")
	f := a.BaseFreqs()
	var sum float64
	for _, v := range f {
		if v <= 0 {
			t.Errorf("frequency %v not positive", v)
		}
		sum += v
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("frequencies sum to %v, want 1", sum)
	}
	// 2 of each base plus pseudo-counts: perfectly uniform.
	for _, v := range f {
		if v != 0.25 {
			t.Errorf("freq = %v, want 0.25", v)
		}
	}
}

func TestBaseFreqsSkewed(t *testing.T) {
	a := mustRead(t, "2 4\na   AAAA\nb   AAAC\n")
	f := a.BaseFreqs()
	if !(f[0] > f[1] && f[1] > f[2]) {
		t.Errorf("freqs = %v, want A > C > G", f)
	}
	if f[2] != f[3] {
		t.Errorf("G and T freqs should be equal pseudo-counts, got %v %v", f[2], f[3])
	}
}

func TestDistanceMatrix(t *testing.T) {
	a := mustRead(t, "3 4\na   AAAA\nb   AAAT\nc   TTTT\n")
	d := a.DistanceMatrix()
	want := [][]float64{{0, 1, 4}, {1, 0, 3}, {4, 3, 0}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("d[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Alignment{
		Names: []string{"a", "b"},
		Seqs:  []*bitseq.Seq{bitseq.FromString("AC"), bitseq.FromString("GT")},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid alignment rejected: %v", err)
	}
	bad := &Alignment{
		Names: []string{"a", "b"},
		Seqs:  []*bitseq.Seq{bitseq.FromString("AC"), bitseq.FromString("GTT")},
	}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch not caught")
	}
	one := &Alignment{Names: []string{"a"}, Seqs: []*bitseq.Seq{bitseq.FromString("AC")}}
	if err := one.Validate(); err == nil {
		t.Error("single-sequence alignment not caught")
	}
}

// garbageInputs must never make Read panic; they also seed FuzzRead.
var garbageInputs = []string{
	"\x00\x01\x02",
	"999999 999999\nx ACGT\n",
	"3 4\n\n\n\n\n\n",
	"2 4\na\nb\nACGT\nACGT\n",
	"2 4\na ACGT\nb ACGT\ntrailing junk here\n",
	strings.Repeat("A", 100000),
	"-1 -1\n",
	"2 0\na \nb \n",
	"4611686018427387904 4\na AAAA\n", // sequence count past any allocation
}

func TestReadNeverPanicsOnGarbage(t *testing.T) {
	for i, in := range garbageInputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("input %d: Read panicked: %v", i, r)
				}
			}()
			_, _ = Read(strings.NewReader(in))
		}()
	}
}

func TestWriteRefusesNamesThatDoNotReadBack(t *testing.T) {
	seqs := []*bitseq.Seq{bitseq.FromString("ACGT"), bitseq.FromString("AC-T")}
	for _, bad := range []string{"Homo sapiens", " lead", "trail ", "new\nline", "tab\tin a long name"} {
		a := &Alignment{Names: []string{bad, "Pan"}, Seqs: seqs}
		var buf bytes.Buffer
		err := Write(&buf, a)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("Write with name %q: error %v, want one naming the sequence", bad, err)
		}
		if buf.Len() != 0 {
			t.Errorf("Write with name %q wrote %d bytes before refusing", bad, buf.Len())
		}
	}
	// A name with a space reads back while every name fits the ten
	// strict columns.
	a := &Alignment{Names: []string{"Homo sapie", "Pan"}, Seqs: seqs}
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if b, err := Read(&buf); err != nil || b.Names[0] != "Homo sapie" {
		t.Fatalf("Read back: %v, %v", b, err)
	}
}

// TestWriteReadRoundTripProperty checks Read(Write(a)) == a for every
// alignment Write accepts, over names drawn from characters PHYLIP lines
// treat specially.
func TestWriteReadRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	plain, special := []rune("ab7_.é"), []rune(" \t\n\v\r\u00a0")
	var accepted, refused int
	for k := 0; k < 3000; k++ {
		nseq, L := 2+r.Intn(5), 1+r.Intn(70)
		a := &Alignment{}
		seen := map[string]bool{}
		for len(a.Names) < nseq {
			name := make([]rune, 1+r.Intn(14))
			for i := range name {
				name[i] = plain[r.Intn(len(plain))]
				if r.Intn(12) == 0 {
					name[i] = special[r.Intn(len(special))]
				}
			}
			if seen[string(name)] {
				continue
			}
			seen[string(name)] = true
			s := bitseq.New(L)
			for j := 0; j < L; j++ {
				if r.Intn(8) == 0 {
					s.SetUnknown(j)
				} else {
					s.Set(j, bitseq.Base(r.Intn(4)))
				}
			}
			a.Names = append(a.Names, string(name))
			a.Seqs = append(a.Seqs, s)
		}
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			refused++
			continue
		}
		accepted++
		b, err := Read(&buf)
		if err != nil {
			t.Fatalf("names %q: Write accepted but Read fails: %v", a.Names, err)
		}
		for i := range a.Seqs {
			if b.Names[i] != a.Names[i] || b.Seqs[i].String() != a.Seqs[i].String() {
				t.Fatalf("names %q: sequence %d reads back as %q %q, want %q %q",
					a.Names, i, b.Names[i], b.Seqs[i], a.Names[i], a.Seqs[i])
			}
		}
	}
	if accepted < 300 || refused < 300 {
		t.Errorf("accepted %d, refused %d of 3000: the generator no longer covers both sides", accepted, refused)
	}
}
