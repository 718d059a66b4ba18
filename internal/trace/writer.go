package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Writer appends draws to a sidecar file. Append only buffers in
// memory — the sampler hot path never touches the kernel — and Flush
// emits everything buffered since the last flush as one checksummed
// frame followed by an fsync. The checkpoint cadence therefore defines
// the frame cadence, and a snapshot's durable offset always lands on a
// frame boundary.
type Writer struct {
	f       *os.File
	nAges   int
	off     int64 // durable byte offset: header plus all synced frames
	draws   int   // draws durable at off
	buf     []byte
	pending int
}

// Open opens (or creates) the sidecar at path for trees with nAges
// internal-node ages. An existing file is validated and recovered: the
// frame chain is scanned with checksums, and a torn or corrupt tail —
// the residue of a crash mid-append — is truncated back to the last
// durable frame boundary. The writer is positioned at that boundary.
func Open(path string, nAges int) (*Writer, error) {
	if nAges <= 0 {
		return nil, fmt.Errorf("trace: nAges %d out of range", nAges)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, nAges: nAges}
	if st.Size() == 0 {
		if _, err := f.WriteAt(EncodeHeader(nAges), 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		w.off = HeaderSize
		return w, nil
	}
	info, err := scan(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.NAges != nAges {
		f.Close()
		return nil, fmt.Errorf("trace: sidecar %s has nAges %d, want %d", path, info.NAges, nAges)
	}
	if info.DurableBytes < st.Size() {
		// Torn tail from a crash mid-append: drop it. Everything up to
		// DurableBytes passed its checksum and stays.
		if err := f.Truncate(info.DurableBytes); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.off = info.DurableBytes
	w.draws = info.Draws
	return w, nil
}

// NAges returns the per-draw age count the sidecar was opened with.
func (w *Writer) NAges() int { return w.nAges }

// Path returns the sidecar file path the writer was opened with.
func (w *Writer) Path() string { return w.f.Name() }

// Append buffers one draw. It performs no I/O.
func (w *Writer) Append(stat float64, ages []float64, logLik float64) {
	w.buf = appendDraw(w.buf, stat, ages, logLik)
	w.pending++
}

// Pending returns the number of buffered draws not yet flushed.
func (w *Writer) Pending() int { return w.pending }

// PendingBytes returns the encoded size of the buffered draws, the
// quantity callers bound to cap recorder memory between flushes.
func (w *Writer) PendingBytes() int { return len(w.buf) }

// Durable returns the durable byte offset and total durable draw count.
// Both advance only on successful Flush.
func (w *Writer) Durable() (off int64, draws int) { return w.off, w.draws }

// Flush writes all buffered draws as a single frame and fsyncs. A
// no-op when nothing is pending. On success the durable offset covers
// the new frame.
func (w *Writer) Flush() error {
	if w.pending == 0 {
		return nil
	}
	frame := make([]byte, 0, 4+len(w.buf)+4)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(w.buf)))
	frame = append(frame, w.buf...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(w.buf))
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.off += int64(len(frame))
	w.draws += w.pending
	w.buf = w.buf[:0]
	w.pending = 0
	return nil
}

// TruncateTo rewinds the sidecar to a checkpointed durable offset,
// discarding frames recorded after that snapshot was taken. The target
// must be a frame boundary holding exactly draws draws — both are
// re-verified against the file, so a checkpoint that disagrees with
// its sidecar fails loudly instead of resuming from skewed state.
// Buffered draws are discarded.
func (w *Writer) TruncateTo(off int64, draws int) error {
	if off < HeaderSize || off > w.off {
		return fmt.Errorf("trace: truncate offset %d outside durable range [%d, %d]", off, HeaderSize, w.off)
	}
	got, err := countDraws(w.f, off)
	if err != nil {
		return err
	}
	if got != draws {
		return fmt.Errorf("trace: sidecar holds %d draws at offset %d, checkpoint says %d", got, off, draws)
	}
	if err := w.f.Truncate(off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.off = off
	w.draws = draws
	w.buf = w.buf[:0]
	w.pending = 0
	return nil
}

// Replay streams durable draws in the byte range [from, to) through
// fn in record order. from and to must be frame boundaries (to < 0
// means the durable end). The ages slice passed to fn is reused across
// calls; fn must copy it to retain it.
func (w *Writer) Replay(from, to int64, fn func(stat float64, ages []float64, logLik float64) error) error {
	if to < 0 {
		to = w.off
	}
	if to > w.off {
		return fmt.Errorf("trace: replay end %d beyond durable offset %d", to, w.off)
	}
	return replay(w.f, w.nAges, from, to, fn)
}

// Close releases the file handle. Buffered draws are not flushed —
// callers that need durability must Flush first; dropping the buffer
// mirrors what a crash would do.
func (w *Writer) Close() error { return w.f.Close() }

// replay decodes frames from r over [from, to) and feeds each draw to
// fn, reusing one ages buffer.
func replay(r io.ReaderAt, nAges int, from, to int64, fn func(stat float64, ages []float64, logLik float64) error) error {
	if from < HeaderSize || from > to {
		return fmt.Errorf("trace: replay range [%d, %d) invalid", from, to)
	}
	drawSize := int64(DrawSize(nAges))
	sr := bufio.NewReaderSize(io.NewSectionReader(r, from, to-from), 1<<16)
	ages := make([]float64, nAges)
	var hdr [4]byte
	pos := from
	for pos < to {
		if _, err := io.ReadFull(sr, hdr[:]); err != nil {
			return fmt.Errorf("trace: frame header at %d: %w", pos, err)
		}
		payloadLen, err := frameLen(hdr[:], drawSize)
		if err != nil {
			return fmt.Errorf("%w at %d", err, pos)
		}
		if pos+4+payloadLen+4 > to {
			return fmt.Errorf("trace: frame at %d overruns replay range", pos)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(sr, payload); err != nil {
			return fmt.Errorf("trace: frame payload at %d: %w", pos, err)
		}
		if _, err := io.ReadFull(sr, hdr[:]); err != nil {
			return fmt.Errorf("trace: frame checksum at %d: %w", pos, err)
		}
		if err := checkSum(payload, hdr[:]); err != nil {
			return fmt.Errorf("%w at %d", err, pos)
		}
		for o := int64(0); o < payloadLen; o += drawSize {
			d := payload[o:]
			stat := f64(d[0:])
			for j := 0; j < nAges; j++ {
				ages[j] = f64(d[8+8*j:])
			}
			logLik := f64(d[8+8*nAges:])
			if err := fn(stat, ages, logLik); err != nil {
				return err
			}
		}
		pos += 4 + payloadLen + 4
	}
	return nil
}
