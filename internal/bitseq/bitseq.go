// Package bitseq stores nucleotide sequences as 2-bit codes packed into
// 64-bit words.
//
// This mirrors the paper's constant-memory layout (§5.1.3): four nucleotide
// states fit in two bits, so 32 positions pack into one 8-byte word and a
// 32-thread warp can service itself from a single word read. Positions
// whose input character is not one of A/C/G/T (gaps, Ns, ambiguity codes)
// are tracked in a side bitmask and treated as missing data by the
// likelihood kernel.
package bitseq

import "fmt"

// Base is a 2-bit nucleotide code.
type Base uint8

// Nucleotide codes, in the A, C, G, T order used throughout the sampler.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

// PerWord is the number of 2-bit codes in one packed word.
const PerWord = 32

// Byte returns the upper-case character for the base.
func (b Base) Byte() byte {
	return "ACGT"[b&3]
}

// String returns the single-letter name of the base.
func (b Base) String() string { return string(b.Byte()) }

// FromByte converts an input character to a base code. The ok result is
// false for any character outside A/C/G/T (case-insensitive), including
// gaps, N and IUPAC ambiguity codes, which callers treat as missing data.
func FromByte(c byte) (Base, bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'C', 'c':
		return C, true
	case 'G', 'g':
		return G, true
	case 'T', 't', 'U', 'u':
		return T, true
	default:
		return 0, false
	}
}

// Seq is an immutable-length packed nucleotide sequence.
type Seq struct {
	words   []uint64 // 2-bit codes, position i in bits (2i mod 64) of word i/32
	unknown []uint64 // bitset: 1 marks a missing-data position
	n       int
}

// New returns a zeroed sequence (all A, all known) of length n.
func New(n int) *Seq {
	if n < 0 {
		panic("bitseq: negative length")
	}
	nw := (n + PerWord - 1) / PerWord
	nu := (n + 63) / 64
	return &Seq{words: make([]uint64, nw), unknown: make([]uint64, nu), n: n}
}

// FromString parses a character string into a packed sequence. Characters
// outside the nucleotide alphabet become missing-data positions; there is
// no error case because PHYLIP data routinely contains gaps.
func FromString(s string) *Seq {
	q := New(len(s))
	for i := 0; i < len(s); i++ {
		if b, ok := FromByte(s[i]); ok {
			q.Set(i, b)
		} else {
			q.SetUnknown(i)
		}
	}
	return q
}

// Len returns the number of positions.
func (s *Seq) Len() int { return s.n }

// At returns the base code at position i and whether the position holds
// known data. For unknown positions the base code is meaningless.
func (s *Seq) At(i int) (Base, bool) {
	s.check(i)
	if s.unknown[i/64]&(1<<(uint(i)%64)) != 0 {
		return 0, false
	}
	w := s.words[i/PerWord]
	return Base((w >> ((uint(i) % PerWord) * 2)) & 3), true
}

// Set stores a known base at position i.
func (s *Seq) Set(i int, b Base) {
	s.check(i)
	shift := (uint(i) % PerWord) * 2
	w := &s.words[i/PerWord]
	*w = (*w &^ (3 << shift)) | (uint64(b&3) << shift)
	s.unknown[i/64] &^= 1 << (uint(i) % 64)
}

// SetUnknown marks position i as missing data.
func (s *Seq) SetUnknown(i int) {
	s.check(i)
	s.unknown[i/64] |= 1 << (uint(i) % 64)
}

// Known reports whether position i holds known data.
func (s *Seq) Known(i int) bool {
	s.check(i)
	return s.unknown[i/64]&(1<<(uint(i)%64)) == 0
}

// String renders the sequence with '?' at missing-data positions.
func (s *Seq) String() string {
	buf := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if b, ok := s.At(i); ok {
			buf[i] = b.Byte()
		} else {
			buf[i] = '?'
		}
	}
	return string(buf)
}

// Clone returns an independent copy.
func (s *Seq) Clone() *Seq {
	c := &Seq{words: make([]uint64, len(s.words)), unknown: make([]uint64, len(s.unknown)), n: s.n}
	copy(c.words, s.words)
	copy(c.unknown, s.unknown)
	return c
}

// Counts accumulates per-base counts of known positions into counts and
// returns the number of known positions.
func (s *Seq) Counts(counts *[NumBases]int) int {
	known := 0
	for i := 0; i < s.n; i++ {
		if b, ok := s.At(i); ok {
			counts[b]++
			known++
		}
	}
	return known
}

// Diff returns the number of positions at which s and t hold different
// known bases. Positions unknown in either sequence are skipped, matching
// the distance measure used to seed the UPGMA starting tree.
func (s *Seq) Diff(t *Seq) int {
	if s.n != t.n {
		panic(fmt.Sprintf("bitseq: Diff length mismatch %d vs %d", s.n, t.n))
	}
	d := 0
	for i := 0; i < s.n; i++ {
		a, okA := s.At(i)
		b, okB := t.At(i)
		if okA && okB && a != b {
			d++
		}
	}
	return d
}

func (s *Seq) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitseq: index %d out of range [0,%d)", i, s.n))
	}
}
