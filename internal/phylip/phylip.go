// Package phylip reads and writes multiple sequence alignments in the
// PHYLIP format the sampler takes as input (paper §5.1.1): a header line
// with the number of samples and their length, then one labelled line per
// sample, with optional wrapped or interleaved continuation blocks.
package phylip

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mpcgs/internal/bitseq"
)

// Alignment is a set of equal-length named sequences, the D term of the
// sampler.
type Alignment struct {
	Names []string
	Seqs  []*bitseq.Seq
}

// NSeq returns the number of sequences.
func (a *Alignment) NSeq() int { return len(a.Seqs) }

// SeqLen returns the common sequence length (0 for an empty alignment).
func (a *Alignment) SeqLen() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return a.Seqs[0].Len()
}

// Validate checks structural invariants: at least two sequences, equal
// lengths, non-empty distinct names.
func (a *Alignment) Validate() error {
	if len(a.Names) != len(a.Seqs) {
		return fmt.Errorf("phylip: %d names but %d sequences", len(a.Names), len(a.Seqs))
	}
	if len(a.Seqs) < 2 {
		return fmt.Errorf("phylip: need at least 2 sequences, have %d", len(a.Seqs))
	}
	L := a.Seqs[0].Len()
	if L == 0 {
		return fmt.Errorf("phylip: zero-length sequences")
	}
	seen := make(map[string]bool, len(a.Names))
	for i, s := range a.Seqs {
		if s.Len() != L {
			return fmt.Errorf("phylip: sequence %d has length %d, want %d", i, s.Len(), L)
		}
		name := a.Names[i]
		if name == "" {
			return fmt.Errorf("phylip: sequence %d has empty name", i)
		}
		if seen[name] {
			return fmt.Errorf("phylip: duplicate sequence name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// BaseFreqs returns the empirical nucleotide frequencies across all known
// positions of the alignment, the prior distribution pi of paper Eq. 21.
// If the alignment contains no known bases (or a base never occurs) a
// small pseudo-count keeps every frequency positive, since the likelihood
// model requires a fully supported prior.
func (a *Alignment) BaseFreqs() [4]float64 {
	var counts [bitseq.NumBases]int
	for _, s := range a.Seqs {
		s.Counts(&counts)
	}
	const pseudo = 1.0
	total := 4 * pseudo
	for _, c := range counts {
		total += float64(c)
	}
	var freqs [4]float64
	for i, c := range counts {
		freqs[i] = (float64(c) + pseudo) / total
	}
	return freqs
}

// DistanceMatrix returns the pairwise count of differing known positions,
// the measure used to build the UPGMA starting tree (paper §5.1.3).
func (a *Alignment) DistanceMatrix() [][]float64 {
	n := a.NSeq()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(a.Seqs[i].Diff(a.Seqs[j]))
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d
}

// Load reads a PHYLIP alignment from a file; a parse error names the
// file.
func Load(path string) (*Alignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	aln, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return aln, nil
}

// Read parses a PHYLIP alignment, accepting both sequential (each
// sequence's data following its name, possibly wrapped over lines) and
// interleaved (blocks of lines cycling through the sequences) layouts.
//
// The non-blank lines are copied once into one buffer; each sequence's
// characters, spaces dropped, are appended straight into its own byte
// buffer and packed once by bitseq.FromBytes. The header's counts never
// size an allocation on their own: the buffers together hold at most the
// bytes the input supplied.
func Read(r io.Reader) (*Alignment, error) {
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
			return nil, fmt.Errorf("phylip: reading header: %w", err)
		}
		return nil, fmt.Errorf("phylip: empty input")
	}
	fields := strings.Fields(header)
	if len(fields) < 2 {
		return nil, fmt.Errorf("phylip: malformed header %q: want <nseq> <length>", header)
	}
	nseq, err := strconv.Atoi(fields[0])
	if err != nil || nseq <= 0 {
		return nil, fmt.Errorf("phylip: bad sequence count %q", fields[0])
	}
	seqlen, err := strconv.Atoi(fields[1])
	if err != nil || seqlen <= 0 {
		return nil, fmt.Errorf("phylip: bad sequence length %q", fields[1])
	}

	// text holds every non-blank line back to back; ends[k] is where line
	// k stops.
	var text []byte
	var ends []int
	for sc.Scan() {
		if line := bytes.TrimRight(sc.Bytes(), "\r\n"); len(bytes.TrimSpace(line)) != 0 {
			text = append(text, line...)
			ends = append(ends, len(text))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("phylip: reading sequences: %w", err)
	}
	line := func(k int) []byte {
		if k == 0 {
			return text[:ends[0]]
		}
		return text[ends[k-1]:ends[k]]
	}

	// First nseq non-empty lines carry the names. Checked before
	// allocating, so a header's counts cannot size memory on their own.
	if len(ends) < nseq {
		return nil, fmt.Errorf("phylip: header promises %d sequences but only %d data lines found", nseq, len(ends))
	}
	// One backing array holds every sequence when the input is large
	// enough to fill it; each buffer is capped at seqlen, so an overlong
	// sequence moves out rather than overwriting its neighbour.
	var backing []byte
	if seqlen <= len(text)/nseq {
		backing = make([]byte, 0, nseq*seqlen)
	}
	names := make([]string, nseq)
	data := make([][]byte, nseq)
	for i := 0; i < nseq; i++ {
		name, rest, err := splitNameLine(line(i), seqlen)
		if err != nil {
			return nil, fmt.Errorf("phylip: line %d: %w", i+2, err)
		}
		names[i] = name
		if backing != nil {
			data[i] = backing[i*seqlen : i*seqlen : (i+1)*seqlen]
		}
		data[i] = appendNonSpace(data[i], rest)
	}

	// Continuation lines: sequential wrapping fills sequence i completely
	// before moving on; interleaved blocks cycle through all sequences.
	// Both are handled by appending each line to the first sequence that
	// still needs characters, in order for interleaved (cur cycles) and
	// by completion for sequential.
	cur := 0
	for k := nseq; k < len(ends); k++ {
		// Advance past completed sequences.
		start := cur
		for len(data[cur]) >= seqlen {
			cur = (cur + 1) % nseq
			if cur == start {
				return nil, fmt.Errorf("phylip: more sequence data than the header's %d x %d", nseq, seqlen)
			}
		}
		data[cur] = appendNonSpace(data[cur], line(k))
		cur = (cur + 1) % nseq
	}

	a := &Alignment{Names: names, Seqs: make([]*bitseq.Seq, nseq)}
	for i := 0; i < nseq; i++ {
		if len(data[i]) != seqlen {
			return nil, fmt.Errorf("phylip: sequence %q has %d characters, header promises %d", names[i], len(data[i]), seqlen)
		}
		a.Seqs[i] = bitseq.FromBytes(data[i])
	}
	return a, a.Validate()
}

// splitNameLine separates the sequence name from the leading data on a
// named line; data still holds its spaces. Strict PHYLIP reserves ten
// columns for the name (which may contain spaces); relaxed variants
// separate name and data by whitespace. The two layouts are ambiguous
// line-by-line, so the header's sequence length arbitrates: the relaxed
// split wins unless only the strict ten-column split yields exactly the
// promised number of characters.
func splitNameLine(line []byte, seqlen int) (name string, data []byte, err error) {
	trimmed := bytes.TrimLeft(line, " \t")
	if len(trimmed) == 0 {
		return "", nil, fmt.Errorf("blank sequence line")
	}
	idx := bytes.IndexAny(trimmed, " \t")
	switch {
	case idx > 0:
		if len(trimmed) > 10 && countNonSpace(trimmed[idx:]) != seqlen && countNonSpace(trimmed[10:]) == seqlen {
			return strictName(trimmed), trimmed[10:], nil
		}
		return string(bytes.TrimSpace(trimmed[:idx])), trimmed[idx:], nil
	case len(trimmed) > 10:
		// No whitespace at all: strict 10-column name glued to data.
		return strictName(trimmed), trimmed[10:], nil
	default:
		// The whole line is a bare name; data follows on later lines.
		return string(trimmed), nil, nil
	}
}

func strictName(line []byte) string { return string(bytes.TrimSpace(line[:10])) }

func countNonSpace(b []byte) int {
	return len(b) - bytes.Count(b, []byte{' '}) - bytes.Count(b, []byte{'\t'})
}

// appendNonSpace appends src to dst without its spaces and tabs.
func appendNonSpace(dst, src []byte) []byte {
	for len(src) > 0 {
		i := bytes.IndexAny(src, " \t")
		if i < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:i]...)
		src = src[i+1:]
	}
	return dst
}

// Write renders the alignment in relaxed sequential PHYLIP, one sequence
// per line, the layout both this package and the reference tools accept.
// It refuses, naming the sequence, any name Read would not give back
// from its line: one holding a newline, leading or trailing whitespace,
// or a space or tab once some name is longer than the ten strict columns.
// Nothing is written when it refuses.
func Write(w io.Writer, a *Alignment) error {
	if err := a.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d %d\n", a.NSeq(), a.SeqLen())
	width := 0
	for _, n := range a.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	if width < 10 {
		width = 10
	}
	for i, s := range a.Seqs {
		if strings.Contains(a.Names[i], "\n") {
			return fmt.Errorf("phylip: cannot write sequence %q: its name holds a newline", a.Names[i])
		}
		start := buf.Len()
		fmt.Fprintf(&buf, "%-*s%s", width+1, a.Names[i], s.String())
		name, data, _ := splitNameLine(buf.Bytes()[start:], a.SeqLen())
		if name != a.Names[i] || countNonSpace(data) != a.SeqLen() {
			return fmt.Errorf("phylip: cannot write sequence %q: its name would read back as %q", a.Names[i], name)
		}
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}
