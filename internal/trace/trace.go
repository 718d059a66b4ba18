// Package trace implements the streaming draw sidecar: an append-only,
// crash-safe file that receives every recorded MCMC draw so checkpoints
// can stay O(interval) — a snapshot stores only a durable byte offset
// into the sidecar instead of the accumulated trace itself.
//
// File layout:
//
//	header  = magic "MPTR" | u32 version | u32 nAges | u32 reserved
//	frame   = u32 payloadLen | payload | u32 crc32(payload)
//	payload = drawCount × draw
//	draw    = (2+nAges) × u64 IEEE-754 bits: stat, ages[0..nAges), logLik
//
// All integers and float bits are little-endian. Draws are exact bit
// images of the in-memory float64 values — writing and reading back is
// lossless by construction, which the bit-identical resume contract
// depends on.
//
// Durability contract: a frame is durable once Flush returns — the
// writer emits header+payload+checksum in a single write and fsyncs
// before advancing its durable offset. A crash mid-append leaves at
// most one torn frame at the tail; Open detects it (short frame or
// checksum mismatch) and truncates the file back to the last durable
// frame boundary. The file only ever grows during a run; resume from
// an older checkpoint truncates it back to that checkpoint's offset.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// Magic identifies a sidecar trace file.
	Magic = "MPTR"
	// Version is the sidecar format version written by this package.
	Version = 1
	// HeaderSize is the fixed byte length of the file header.
	HeaderSize = 16

	// maxFrameLen bounds a single frame's payload. The writer batches
	// at checkpoint cadence, far below this; the bound exists so a
	// corrupted length field cannot drive a huge allocation.
	maxFrameLen = 1 << 28
)

// DrawSize returns the encoded byte length of one draw for trees with
// nAges internal-node ages.
func DrawSize(nAges int) int { return 8 * (2 + nAges) }

// EncodeHeader renders the 16-byte file header for trees with nAges
// internal-node ages.
func EncodeHeader(nAges int) []byte {
	h := make([]byte, HeaderSize)
	copy(h, Magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	binary.LittleEndian.PutUint32(h[8:], uint32(nAges))
	return h
}

// DecodeHeader validates a sidecar header and returns nAges.
func DecodeHeader(h []byte) (nAges int, err error) {
	if len(h) < HeaderSize {
		return 0, fmt.Errorf("trace: short header: %d bytes", len(h))
	}
	if string(h[:4]) != Magic {
		return 0, fmt.Errorf("trace: bad magic %q", h[:4])
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != Version {
		return 0, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint32(h[8:])
	if n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("trace: implausible nAges %d", n)
	}
	return int(n), nil
}

// appendDraw encodes one draw onto buf as raw little-endian bits.
func appendDraw(buf []byte, stat float64, ages []float64, logLik float64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(stat))
	for _, a := range ages {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(logLik))
}

// frameLen decodes a frame's length field and checks that it is a
// plausible payload of whole draws of drawSize bytes. It is the one
// frame-header rule: scan, countDraws and replay all apply it.
func frameLen(field []byte, drawSize int64) (int64, error) {
	n := int64(binary.LittleEndian.Uint32(field))
	if n == 0 || n > maxFrameLen || n%drawSize != 0 {
		return 0, fmt.Errorf("trace: implausible frame length %d", n)
	}
	return n, nil
}

// checkSum verifies a frame's payload against its CRC-32 trailer.
func checkSum(payload, trailer []byte) error {
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("trace: frame checksum mismatch: %08x != %08x", got, want)
	}
	return nil
}
