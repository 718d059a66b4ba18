package bitseq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromByte(t *testing.T) {
	cases := []struct {
		c    byte
		want Base
		ok   bool
	}{
		{'A', A, true}, {'a', A, true},
		{'C', C, true}, {'c', C, true},
		{'G', G, true}, {'g', G, true},
		{'T', T, true}, {'t', T, true},
		{'U', T, true}, {'u', T, true},
		{'N', 0, false}, {'-', 0, false}, {'?', 0, false}, {'X', 0, false},
	}
	for _, cse := range cases {
		got, ok := FromByte(cse.c)
		if ok != cse.ok || (ok && got != cse.want) {
			t.Errorf("FromByte(%q) = %v,%v want %v,%v", cse.c, got, ok, cse.want, cse.ok)
		}
	}
}

func TestBaseByte(t *testing.T) {
	for i, want := range []byte{'A', 'C', 'G', 'T'} {
		if got := Base(i).Byte(); got != want {
			t.Errorf("Base(%d).Byte() = %q, want %q", i, got, want)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	in := "ACGTACGTTTGGCCAA"
	s := FromString(in)
	if s.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(in))
	}
	if got := s.String(); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

func TestUnknownPositions(t *testing.T) {
	s := FromString("AC-GN?T")
	wantKnown := []bool{true, true, false, true, false, false, true}
	for i, w := range wantKnown {
		if s.Known(i) != w {
			t.Errorf("Known(%d) = %v, want %v", i, s.Known(i), w)
		}
	}
	if got := s.String(); got != "AC?G??T" {
		t.Errorf("String = %q, want AC?G??T", got)
	}
}

func TestSetOverwrite(t *testing.T) {
	s := New(70) // spans three words
	for i := 0; i < 70; i++ {
		s.Set(i, Base(i%4))
	}
	s.Set(33, T)
	s.Set(65, G)
	for i := 0; i < 70; i++ {
		want := Base(i % 4)
		if i == 33 {
			want = T
		}
		if i == 65 {
			want = G
		}
		got, ok := s.At(i)
		if !ok || got != want {
			t.Fatalf("At(%d) = %v,%v want %v,true", i, got, ok, want)
		}
	}
}

func TestSetClearsUnknown(t *testing.T) {
	s := New(5)
	s.SetUnknown(2)
	if s.Known(2) {
		t.Fatal("position should be unknown")
	}
	s.Set(2, G)
	if b, ok := s.At(2); !ok || b != G {
		t.Fatalf("At(2) = %v,%v want G,true", b, ok)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	letters := []byte("ACGTacgtN-?X")
	f := func(idx []uint8) bool {
		var sb strings.Builder
		for _, v := range idx {
			sb.WriteByte(letters[int(v)%len(letters)])
		}
		in := sb.String()
		s := FromString(in)
		if s.Len() != len(in) {
			return false
		}
		for i := 0; i < len(in); i++ {
			b, okWant := FromByte(in[i])
			got, ok := s.At(i)
			if ok != okWant {
				return false
			}
			if ok && got != b {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := FromString("ACGT")
	c := s.Clone()
	c.Set(0, T)
	if b, _ := s.At(0); b != A {
		t.Error("Clone is not independent")
	}
	if b, _ := c.At(0); b != T {
		t.Error("Clone mutation lost")
	}
}

func TestCounts(t *testing.T) {
	s := FromString("AACGT-N")
	var counts [NumBases]int
	known := s.Counts(&counts)
	if known != 5 {
		t.Errorf("known = %d, want 5", known)
	}
	want := [NumBases]int{2, 1, 1, 1}
	if counts != want {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

func TestDiff(t *testing.T) {
	a := FromString("AACGTT")
	b := FromString("AACGAA")
	if d := a.Diff(b); d != 2 {
		t.Errorf("Diff = %d, want 2", d)
	}
	// Unknown positions are excluded from the count.
	c := FromString("AACG--")
	if d := a.Diff(c); d != 0 {
		t.Errorf("Diff with gaps = %d, want 0", d)
	}
}

func TestDiffSymmetric(t *testing.T) {
	f := func(xa, xb []uint8) bool {
		n := len(xa)
		if len(xb) < n {
			n = len(xb)
		}
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Set(i, Base(xa[i]%4))
			b.Set(i, Base(xb[i]%4))
		}
		return a.Diff(b) == b.Diff(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Diff with mismatched lengths should panic")
		}
	}()
	FromString("ACG").Diff(FromString("AC"))
}

func TestWordLayout(t *testing.T) {
	// Position i occupies bits 2i..2i+1 of word i/32; a warp's 32 sites
	// live in exactly one word.
	s := New(64)
	s.Set(0, T)  // bits 0-1 of word 0
	s.Set(31, G) // bits 62-63 of word 0
	s.Set(32, C) // bits 0-1 of word 1
	if w := s.words[0]; w != (3 | uint64(2)<<62) {
		t.Errorf("word 0 = %#x", w)
	}
	if w := s.words[1]; w != 1 {
		t.Errorf("word 1 = %#x, want 1", w)
	}
	if len(s.words) != 2 {
		t.Errorf("%d words, want 2", len(s.words))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(3)
	for _, f := range []func(){
		func() { s.At(3) },
		func() { s.At(-1) },
		func() { s.Set(3, A) },
		func() { s.SetUnknown(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestZeroLength(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.String() != "" {
		t.Error("zero-length sequence misbehaves")
	}
}
