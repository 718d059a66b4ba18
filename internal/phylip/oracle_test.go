package phylip

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mpcgs/internal/bitseq"
)

// readOracle is the line-at-a-time parser Read replaced, kept as its
// reference: it also returns each sequence's characters as read. It
// parses PHYLIP accepting both sequential (each
// sequence's data following its name, possibly wrapped over lines) and
// interleaved (blocks of lines cycling through the sequences) layouts.
func readOracle(r io.Reader) (*Alignment, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	var header string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			header = line
			break
		}
	}
	if header == "" {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("phylip: reading header: %w", err)
		}
		return nil, nil, fmt.Errorf("phylip: empty input")
	}
	fields := strings.Fields(header)
	if len(fields) < 2 {
		return nil, nil, fmt.Errorf("phylip: malformed header %q: want <nseq> <length>", header)
	}
	nseq, err := strconv.Atoi(fields[0])
	if err != nil || nseq <= 0 {
		return nil, nil, fmt.Errorf("phylip: bad sequence count %q", fields[0])
	}
	seqlen, err := strconv.Atoi(fields[1])
	if err != nil || seqlen <= 0 {
		return nil, nil, fmt.Errorf("phylip: bad sequence length %q", fields[1])
	}

	var lines []string
	for sc.Scan() {
		if line := strings.TrimRight(sc.Text(), "\r\n"); strings.TrimSpace(line) != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("phylip: reading sequences: %w", err)
	}

	// First nseq non-empty lines carry the names. Checked before
	// allocating, so a header's counts cannot size memory on their own.
	if len(lines) < nseq {
		return nil, nil, fmt.Errorf("phylip: header promises %d sequences but only %d data lines found", nseq, len(lines))
	}
	names := make([]string, nseq)
	data := make([]strings.Builder, nseq)
	for i := 0; i < nseq; i++ {
		name, rest, err := splitNameLineOracle(lines[i], seqlen)
		if err != nil {
			return nil, nil, fmt.Errorf("phylip: line %d: %w", i+2, err)
		}
		names[i] = name
		data[i].WriteString(rest)
	}

	// Continuation lines: sequential wrapping fills sequence i completely
	// before moving on; interleaved blocks cycle through all sequences.
	// Both are handled by appending each line to the first sequence that
	// still needs characters, in order for interleaved (cur cycles) and
	// by completion for sequential.
	cur := 0
	for _, line := range lines[nseq:] {
		chars := stripSpacesOracle(line)
		// Advance past completed sequences.
		start := cur
		for data[cur].Len() >= seqlen {
			cur = (cur + 1) % nseq
			if cur == start {
				return nil, nil, fmt.Errorf("phylip: more sequence data than the header's %d x %d", nseq, seqlen)
			}
		}
		data[cur].WriteString(chars)
		cur = (cur + 1) % nseq
	}

	a := &Alignment{Names: names, Seqs: make([]*bitseq.Seq, nseq)}
	raw := make([]string, nseq)
	for i := 0; i < nseq; i++ {
		s := data[i].String()
		if len(s) != seqlen {
			return nil, nil, fmt.Errorf("phylip: sequence %q has %d characters, header promises %d", names[i], len(s), seqlen)
		}
		a.Seqs[i] = bitseq.FromString(s)
		raw[i] = s
	}
	return a, raw, a.Validate()
}

// splitNameLineOracle is splitNameLine on strings, returning the data
// with its spaces already stripped.
func splitNameLineOracle(line string, seqlen int) (name, data string, err error) {
	trimmed := strings.TrimLeft(line, " \t")
	if trimmed == "" {
		return "", "", fmt.Errorf("blank sequence line")
	}
	var relName, relData string
	if idx := strings.IndexAny(trimmed, " \t"); idx > 0 {
		relName, relData = strings.TrimSpace(trimmed[:idx]), stripSpacesOracle(trimmed[idx:])
	} else if len(trimmed) > 10 {
		// No whitespace at all: strict 10-column name glued to data.
		return strings.TrimSpace(trimmed[:10]), stripSpacesOracle(trimmed[10:]), nil
	} else {
		// The whole line is a bare name; data follows on later lines.
		return trimmed, "", nil
	}
	if len(relData) != seqlen && len(trimmed) > 10 {
		if strict := stripSpacesOracle(trimmed[10:]); len(strict) == seqlen {
			return strings.TrimSpace(trimmed[:10]), strict, nil
		}
	}
	return relName, relData, nil
}

func stripSpacesOracle(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != ' ' && c != '\t' {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// matchOracle checks that Read and readOracle agree on in: the same
// error, or the same names and, site for site, the codes the oracle's
// characters decode to.
func matchOracle(t *testing.T, in []byte) {
	t.Helper()
	got, gotErr := Read(bytes.NewReader(in))
	want, raw, wantErr := readOracle(bytes.NewReader(in))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("Read(%q) error %v, oracle %v", in, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got.Names) != len(want.Names) || len(got.Seqs) != len(raw) {
		t.Fatalf("Read(%q): %d names %d seqs, oracle %d %d", in, len(got.Names), len(got.Seqs), len(want.Names), len(raw))
	}
	for i, chars := range raw {
		if got.Names[i] != want.Names[i] {
			t.Fatalf("Read(%q): name %d = %q, oracle %q", in, i, got.Names[i], want.Names[i])
		}
		s := got.Seqs[i]
		if s.Len() != len(chars) {
			t.Fatalf("Read(%q): sequence %d has length %d, oracle %d", in, i, s.Len(), len(chars))
		}
		for j := 0; j < len(chars); j++ {
			wb, wok := bitseq.FromByte(chars[j])
			if b, ok := s.At(j); ok != wok || (ok && b != wb) {
				t.Fatalf("Read(%q): sequence %d site %d = %v,%v, oracle %q", in, i, j, b, ok, chars[j])
			}
		}
	}
}

// randomPhylip writes an alignment one line per sequence or
// interleaved, with random spacing, blank lines, CR endings and names
// that are relaxed or fill the ten strict columns (spaces included); now
// and then it miscounts the header so the error paths run too.
func randomPhylip(r *rand.Rand) []byte {
	const chars = "ACGTacgtuUN-?.X \t"
	nseq, L := 1+r.Intn(6), 1+r.Intn(90)
	var b bytes.Buffer
	hn, hl := nseq, L
	if r.Intn(10) == 0 {
		hn += r.Intn(3) - 1
	}
	if r.Intn(10) == 0 {
		hl += r.Intn(3) - 1
	}
	eol := []string{"\n", "\n", "\n", "\r\n", "\r\r\n"}[r.Intn(5)]
	fmt.Fprintf(&b, "%s%d %d%s", strings.Repeat(" ", r.Intn(2)), hn, hl, eol)
	chunk := L
	if r.Intn(2) == 0 {
		chunk = 1 + r.Intn(L)
	}
	line := func(s string) {
		b.WriteString(s)
		if r.Intn(6) == 0 {
			b.WriteString(eol + "  ")
		}
		b.WriteString(eol)
	}
	seqs := make([]string, nseq)
	for i := range seqs {
		buf := make([]byte, L)
		for j := range buf {
			buf[j] = chars[r.Intn(len(chars)-2)]
		}
		seqs[i] = string(buf)
	}
	for k := 0; k*chunk < L; k++ {
		for i, s := range seqs {
			piece := s[k*chunk : min(L, (k+1)*chunk)]
			if r.Intn(8) == 0 { // a space or tab inside the data
				cut := r.Intn(len(piece) + 1)
				piece = piece[:cut] + chars[len(chars)-2+r.Intn(2):][:1] + piece[cut:]
			}
			switch {
			case k > 0:
				line(piece)
			case r.Intn(4) == 0:
				line(fmt.Sprintf("%-10s", fmt.Sprintf("s p%d", i)) + piece)
			default:
				line(fmt.Sprintf("n%d%s%s%s", i, strings.Repeat("x", r.Intn(12)), strings.Repeat(" ", 1+r.Intn(3)), piece))
			}
		}
	}
	return b.Bytes()
}

func TestReadMatchesOracle(t *testing.T) {
	for _, in := range readErrorCases {
		matchOracle(t, []byte(in))
	}
	for _, in := range garbageInputs {
		matchOracle(t, []byte(in))
	}
	r := rand.New(rand.NewSource(1))
	ok := 0
	for k := 0; k < 1000; k++ {
		in := randomPhylip(r)
		matchOracle(t, in)
		if _, err := Read(bytes.NewReader(in)); err == nil {
			ok++
		}
	}
	if ok < 300 {
		t.Errorf("only %d of 1000 random alignments parsed: the generator no longer exercises the success path", ok)
	}
}

func FuzzRead(f *testing.F) {
	for _, in := range readErrorCases {
		f.Add([]byte(in))
	}
	for _, in := range garbageInputs {
		f.Add([]byte(in))
	}
	r := rand.New(rand.NewSource(2))
	for k := 0; k < 8; k++ {
		f.Add(randomPhylip(r))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		matchOracle(t, in)
	})
}
