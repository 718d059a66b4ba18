package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzFrameDecode drives the production read path: a valid header for
// nAges followed by arbitrary frame bytes goes through scan, and the
// durable prefix scan reports goes through replay. A header that scan
// refuses ends the case; otherwise replay of the durable prefix must
// not error, must yield exactly Info.Draws draws, and re-encoding those
// draws must reproduce the durable frames' payload bytes bit for bit
// (the payload is raw IEEE-754 images).
func FuzzFrameDecode(f *testing.F) {
	// A well-formed single-draw frame for nAges=2 seeds the corpus.
	payload := appendDraw(nil, 1.5, []float64{0.25, 0.75}, -3.0)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	f.Add(2, append(append([]byte{}, frame...), frame...))
	f.Add(2, frame[:len(frame)-3]) // torn tail
	f.Add(1, []byte{})
	f.Add(3, []byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add(0, frame) // header refused

	f.Fuzz(func(t *testing.T, nAges int, frames []byte) {
		if nAges > 64 {
			return // a valid header, but huge draws only slow the fuzzer
		}
		b := append(EncodeHeader(nAges), frames...)
		info, err := scan(bytesReaderAt(b), int64(len(b)))
		if err != nil {
			return
		}
		var enc []byte
		draws := 0
		err = replay(bytesReaderAt(b), info.NAges, HeaderSize, info.DurableBytes,
			func(stat float64, ages []float64, logLik float64) error {
				if len(ages) != nAges {
					t.Fatalf("draw has %d ages, want %d", len(ages), nAges)
				}
				draws++
				enc = appendDraw(enc, stat, ages, logLik)
				return nil
			})
		if err != nil {
			t.Fatalf("replay of durable prefix [%d, %d): %v", HeaderSize, info.DurableBytes, err)
		}
		if draws != info.Draws {
			t.Fatalf("replayed %d draws, scan counted %d", draws, info.Draws)
		}
		var want []byte
		for pos := int64(HeaderSize); pos < info.DurableBytes; {
			n := int64(binary.LittleEndian.Uint32(b[pos:]))
			want = append(want, b[pos+4:pos+4+n]...)
			pos += 4 + n + 4
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("re-encoded draws (%d bytes) differ from the durable payloads (%d bytes)", len(enc), len(want))
		}
	})
}

// FuzzScan feeds arbitrary file images to the recovery scanner: it
// must classify any input as (header error) or (durable prefix + torn
// tail) without panicking, and the durable prefix must re-scan to the
// same result (truncation is idempotent).
func FuzzScan(f *testing.F) {
	hdr := EncodeHeader(2)
	f.Add(append(append([]byte{}, hdr...), 0x01, 0x02))
	f.Add(hdr)
	f.Add([]byte("MPTRxxxxyyyyzzzz"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		info, err := scan(bytesReaderAt(b), int64(len(b)))
		if err != nil {
			return
		}
		if info.DurableBytes < HeaderSize || info.DurableBytes > int64(len(b)) {
			t.Fatalf("durable %d outside [%d, %d]", info.DurableBytes, HeaderSize, len(b))
		}
		again, err := scan(bytesReaderAt(b[:info.DurableBytes]), info.DurableBytes)
		if err != nil {
			t.Fatalf("re-scan of durable prefix failed: %v", err)
		}
		if again.DurableBytes != info.DurableBytes || again.Draws != info.Draws || again.Frames != info.Frames {
			t.Fatalf("re-scan diverged: %+v vs %+v", again, info)
		}
	})
}

type bytesReaderAt []byte

func (b bytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, errEOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, errEOF
	}
	return n, nil
}

var errEOF = errShort{}

type errShort struct{}

func (errShort) Error() string { return "short read" }
