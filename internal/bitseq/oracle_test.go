package bitseq

import (
	"math/rand"
	"testing"
)

// Per-site reference implementations: the word kernels must agree with
// them on every sequence, whatever its length and however it was built.

func fromStringOracle(s string) *Seq {
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

func countsOracle(s *Seq, counts *[NumBases]int) int {
	known := 0
	for i := 0; i < s.n; i++ {
		if b, ok := s.At(i); ok {
			counts[b]++
			known++
		}
	}
	return known
}

func diffOracle(s, t *Seq) int {
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

const oracleLetters = "ACGTacgtUuN-?X. \x00\xff"

func randomText(r *rand.Rand, n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = oracleLetters[r.Intn(len(oracleLetters))]
	}
	return string(buf)
}

// scribble applies random Set and SetUnknown calls, half of them as a
// pair on one position: Set after SetUnknown (the unknown bit must
// clear) or SetUnknown after Set (the stale code bits stay under the
// unknown bit and must not be read).
func scribble(r *rand.Rand, s *Seq) {
	if s.n == 0 {
		return
	}
	for k := r.Intn(2 * s.n); k > 0; k-- {
		i := r.Intn(s.n)
		b := Base(r.Intn(NumBases))
		switch r.Intn(4) {
		case 0:
			s.Set(i, b)
		case 1:
			s.SetUnknown(i)
		case 2:
			s.SetUnknown(i)
			s.Set(i, b)
		case 3:
			s.Set(i, b)
			s.SetUnknown(i)
		}
	}
}

func sameSeq(a, b *Seq) bool {
	if a.n != b.n || len(a.words) != len(b.words) || len(a.unknown) != len(b.unknown) {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	for i := range a.unknown {
		if a.unknown[i] != b.unknown[i] {
			return false
		}
	}
	return true
}

func TestWordKernelsMatchPerSite(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 200; n++ {
		for rep := 0; rep < 20; rep++ {
			in := randomText(r, n)
			a := FromString(in)
			if !sameSeq(a, fromStringOracle(in)) {
				t.Fatalf("n=%d: FromString(%q) differs from the per-site build", n, in)
			}
			b := FromBytes([]byte(randomText(r, n)))
			if rep%2 == 1 {
				scribble(r, a)
				scribble(r, b)
			}
			for _, s := range []*Seq{a, b} {
				got, want := [NumBases]int{1, 2, 3, 4}, [NumBases]int{1, 2, 3, 4}
				if gk, wk := s.Counts(&got), countsOracle(s, &want); gk != wk || got != want {
					t.Fatalf("n=%d %q: Counts = %d %v, per-site %d %v", n, s, gk, got, wk, want)
				}
			}
			if got, want := a.Diff(b), diffOracle(a, b); got != want || b.Diff(a) != want {
				t.Fatalf("n=%d: Diff(%q, %q) = %d/%d, per-site %d", n, a, b, got, b.Diff(a), want)
			}
		}
	}
}

func TestBlockMatchesAt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n <= 130; n++ {
		s := FromString(randomText(r, n))
		scribble(r, s)
		for k := 0; k*PerWord < n; k++ {
			codes, unk := s.Block(k)
			for j := 0; j < PerWord; j++ {
				i := k*PerWord + j
				gotB, gotOK := Base(codes>>(2*j)&3), unk>>j&1 == 0
				if i >= n {
					if gotB != A || !gotOK {
						t.Fatalf("n=%d: position %d past Len reads %v,%v, want A,true", n, i, gotB, gotOK)
					}
					continue
				}
				b, ok := s.At(i)
				if gotOK != ok || (ok && gotB != b) {
					t.Fatalf("n=%d: Block(%d) lane %d = %v,%v, At(%d) = %v,%v", n, k, j, gotB, gotOK, i, b, ok)
				}
			}
		}
	}
}
