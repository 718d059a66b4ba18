package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Info summarizes a sidecar file without modifying it.
type Info struct {
	NAges        int
	Frames       int
	Draws        int
	DurableBytes int64 // header + frames that pass their checksums
	FileBytes    int64 // actual size; > DurableBytes means a torn tail
}

// Torn reports whether the file ends in an incomplete or corrupt
// frame that recovery would truncate.
func (i Info) Torn() bool { return i.FileBytes > i.DurableBytes }

// Stat scans a sidecar read-only and reports its shape. Used by
// `mpcgs -inspect` on paused jobs; the file is left untouched even if
// the tail is torn.
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	return scan(f, st.Size())
}

// Replay streams durable draws from the sidecar at path in the byte
// range [from, to) through fn (to < 0 means end of durable data). The
// ages slice passed to fn is reused; fn must copy to retain.
func Replay(path string, from, to int64, fn func(stat float64, ages []float64, logLik float64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	info, err := scan(f, st.Size())
	if err != nil {
		return err
	}
	if to < 0 {
		to = info.DurableBytes
	}
	if to > info.DurableBytes {
		return fmt.Errorf("trace: replay end %d beyond durable offset %d", to, info.DurableBytes)
	}
	return replay(f, info.NAges, from, to, fn)
}

// scan validates the header and walks the frame chain, checksumming
// every frame. It stops at the first torn or corrupt frame — under the
// append-only crash model only the tail can be damaged — and reports
// how far the durable prefix extends.
func scan(r io.ReaderAt, size int64) (Info, error) {
	var hdr [HeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return Info{}, fmt.Errorf("trace: reading header: %w", err)
	}
	nAges, err := DecodeHeader(hdr[:])
	if err != nil {
		return Info{}, err
	}
	info := Info{NAges: nAges, DurableBytes: HeaderSize, FileBytes: size}
	drawSize := int64(DrawSize(nAges))
	var lenBuf [4]byte
	pos := int64(HeaderSize)
	for pos+4 <= size {
		if _, err := r.ReadAt(lenBuf[:], pos); err != nil {
			return Info{}, fmt.Errorf("trace: frame header at %d: %w", pos, err)
		}
		payloadLen, err := frameLen(lenBuf[:], drawSize)
		if err != nil {
			break // corrupt tail
		}
		end := pos + 4 + payloadLen + 4
		if end > size {
			break // torn: frame extends past EOF
		}
		payload := make([]byte, payloadLen)
		if _, err := r.ReadAt(payload, pos+4); err != nil {
			return Info{}, fmt.Errorf("trace: frame payload at %d: %w", pos, err)
		}
		if _, err := r.ReadAt(lenBuf[:], pos+4+payloadLen); err != nil {
			return Info{}, fmt.Errorf("trace: frame checksum at %d: %w", pos, err)
		}
		if checkSum(payload, lenBuf[:]) != nil {
			break // torn: partial payload write
		}
		info.Frames++
		info.Draws += int(payloadLen / drawSize)
		info.DurableBytes = end
		pos = end
	}
	return info, nil
}

// countDraws walks frame headers up to limit and returns the draw
// count, erroring if limit does not land exactly on a frame boundary.
func countDraws(f *os.File, limit int64) (int, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	info, err := scan(f, st.Size())
	if err != nil {
		return 0, err
	}
	if limit > info.DurableBytes {
		return 0, fmt.Errorf("trace: offset %d beyond durable data at %d", limit, info.DurableBytes)
	}
	drawSize := int64(DrawSize(info.NAges))
	var lenBuf [4]byte
	draws := 0
	pos := int64(HeaderSize)
	for pos < limit {
		if _, err := f.ReadAt(lenBuf[:], pos); err != nil {
			return 0, fmt.Errorf("trace: frame header at %d: %w", pos, err)
		}
		payloadLen, err := frameLen(lenBuf[:], drawSize)
		if err != nil {
			return 0, fmt.Errorf("%w at %d", err, pos)
		}
		draws += int(payloadLen / drawSize)
		pos += 4 + payloadLen + 4
	}
	if pos != limit {
		return 0, fmt.Errorf("trace: offset %d is not a frame boundary", limit)
	}
	return draws, nil
}

func f64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
