package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcgs/internal/device"
	"mpcgs/internal/trace"
)

// TestSpillKillResumeTornTailBitIdentical is the crash-safety statement
// of the sidecar: a run killed after its last checkpoint leaves frames
// beyond the snapshot offset plus a torn partial frame on disk, and the
// resumed run must truncate both and finish bit-identical to the
// uninterrupted one — including the final sidecar bytes.
func TestSpillKillResumeTornTailBitIdentical(t *testing.T) {
	dev := device.Serial()
	eval, init := engineFixture(t, 6, 60, 801, dev)
	s := NewGMH(eval, dev, 3)
	dir := t.TempDir()
	side := filepath.Join(dir, "job.trace")
	cfg := ChainConfig{Theta: 1.0, Burnin: 10, Samples: 120, Seed: 802,
		Trace: &TraceSpec{Path: side}}

	refCfg := cfg
	refCfg.Trace = &TraceSpec{Path: filepath.Join(dir, "uninterrupted.trace")}
	want, err := Run(s, init, refCfg)
	if err != nil {
		t.Fatal(err)
	}

	run, err := s.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnapshot(t, run)
	if snap.TraceRef == nil {
		t.Fatal("spilling snapshot carries no sidecar reference")
	}
	// The "crash": the run keeps going past the checkpoint (the second
	// snapshot forces those frames onto disk), then dies mid-append,
	// leaving a torn partial frame at the tail.
	for i := 0; i < 6; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	mustSnapshot(t, run)
	f, err := os.OpenFile(side, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	torn, err := os.Stat(side)
	if err != nil {
		t.Fatal(err)
	}
	if torn.Size() <= snap.TraceRef.Offset {
		t.Fatalf("test setup: no post-snapshot tail on disk (%d <= %d)", torn.Size(), snap.TraceRef.Offset)
	}

	resumed, err := s.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for !resumed.Done() {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sameTraces(t, "torn-tail resume", res.Samples, want.Samples, 0)

	// Frame boundaries encode the flush cadence, so the two sidecars
	// need not match byte-for-byte — but the draw streams they replay
	// must be bit-identical.
	got := replayAll(t, side)
	ref := replayAll(t, refCfg.Trace.Path)
	if len(got) != len(ref) {
		t.Fatalf("sidecar draw counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if !bytes.Equal(got[i], ref[i]) {
			t.Fatalf("sidecar draw %d differs from uninterrupted run", i)
		}
	}
}

// replayAll decodes every durable draw of a sidecar into its raw bit
// patterns for exact comparison.
func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var draws [][]byte
	err := trace.Replay(path, trace.HeaderSize, -1, func(stat float64, ages []float64, logLik float64) error {
		rec := binary.LittleEndian.AppendUint64(nil, math.Float64bits(stat))
		for _, a := range ages {
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(a))
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(logLik))
		draws = append(draws, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return draws
}

// TestRestoreRejectsCrossModeTrace: a snapshot's trace has one form, the
// sidecar reference. For every sampler, a run that records in memory
// still snapshots its chains and counters but carries no TraceRef, and
// restoring that snapshot fails — into an in-memory run and into a
// spilling one alike — with an error naming the missing sidecar
// reference. A sidecar snapshot restored into an in-memory run is refused
// too, and no refused restore changes a byte of the sidecar.
func TestRestoreRejectsCrossModeTrace(t *testing.T) {
	dev := device.Serial()
	eval, init := engineFixture(t, 6, 60, 811, dev)
	memCfg := ChainConfig{Theta: 1.0, Burnin: 10, Samples: 90, Seed: 812}
	for _, tc := range []struct {
		name string
		s    StepSampler
	}{
		{"mh", NewMH(eval)},
		{"gmh", NewGMH(eval, dev, 3)},
		{"heated", NewHeated(eval, dev, 3)},
		{"multichain", NewMultiChain(eval, dev, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spillCfg := spilling(memCfg, dir, "job")
			snapAt := func(cfg ChainConfig) *StepSnapshot {
				t.Helper()
				run, err := tc.s.Start(init, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 11; i++ {
					if err := run.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return mustSnapshot(t, run)
			}
			spillSnap := snapAt(spillCfg)
			memSnap := snapAt(memCfg)
			if len(memSnap.Chains) == 0 || memSnap.Chains[0].Tree == nil || memSnap.TraceRef != nil {
				t.Fatalf("in-memory snapshot shape wrong: %d chains, trace ref %v", len(memSnap.Chains), memSnap.TraceRef != nil)
			}
			sidecars := func() map[string][]byte {
				t.Helper()
				paths, err := filepath.Glob(filepath.Join(dir, "*"))
				if err != nil || len(paths) == 0 {
					t.Fatalf("no sidecar files in %s: %v", dir, err)
				}
				files := make(map[string][]byte, len(paths))
				for _, p := range paths {
					if files[p], err = os.ReadFile(p); err != nil {
						t.Fatal(err)
					}
				}
				return files
			}
			before := sidecars()

			for _, into := range []struct {
				mode string
				cfg  ChainConfig
			}{{"an in-memory", memCfg}, {"a spilling", spillCfg}} {
				run, err := tc.s.Start(init, into.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := run.Restore(memSnap); err == nil || !strings.Contains(err.Error(), "no sidecar reference") {
					t.Errorf("in-memory snapshot restored into %s run: %v", into.mode, err)
				}
			}
			mem, err := tc.s.Start(init, memCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Restore(spillSnap); err == nil {
				t.Error("sidecar snapshot restored into an in-memory run")
			}
			after := sidecars()
			if len(after) != len(before) {
				t.Fatalf("refused restores changed the sidecar set: %d files before, %d after", len(before), len(after))
			}
			for p, b := range before {
				if !bytes.Equal(b, after[p]) {
					t.Errorf("refused restores changed %s: %d bytes before, %d after", filepath.Base(p), len(b), len(after[p]))
				}
			}
		})
	}
}

// TestRecorderSpillBoundedMemory: in spill mode the recorder
// accumulates nothing per draw — the sample set stays empty until
// finalize and the writer's buffer is bounded by the flush threshold.
func TestRecorderSpillBoundedMemory(t *testing.T) {
	const draws = 100_000
	cfg := ChainConfig{Theta: 1.0, Burnin: 100, Samples: draws - 100, Seed: 1,
		Trace: &TraceSpec{Path: filepath.Join(t.TempDir(), "bounded.trace")}}
	r, err := newRecorder(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ages := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for k := 0; k < draws; k++ {
		if err := r.record(1000+float64(k%977), ages, -50.0); err != nil {
			t.Fatal(err)
		}
	}
	if r.set.Len() != 0 {
		t.Fatalf("spilling recorder materialized %d draws before finalize", r.set.Len())
	}
	if got := r.spill.PendingBytes(); got >= spillFlushBytes+1024 {
		t.Fatalf("writer buffer grew past the flush threshold: %d bytes", got)
	}
	if err := r.finalize(); err != nil {
		t.Fatal(err)
	}
	if r.set.Len() != draws {
		t.Fatalf("finalize replayed %d draws, want %d", r.set.Len(), draws)
	}
}

// BenchmarkRecorderSpill1M drives 10^6 draws through the spilling
// recorder per op. The alloc count reported must not scale with the
// draw count — recording is append-to-buffer plus periodic flush, so
// memory stays O(flush window) no matter how long the run.
func BenchmarkRecorderSpill1M(b *testing.B) {
	const draws = 1_000_000
	dir := b.TempDir()
	ages := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ChainConfig{Theta: 1.0, Burnin: 100, Samples: draws - 100, Seed: 1,
			Trace: &TraceSpec{Path: filepath.Join(dir, fmt.Sprintf("bench%d.trace", i))}}
		r, err := newRecorder(6, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < draws; k++ {
			if err := r.record(1000+float64(k%977), ages, -50.0); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.spill.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := r.spill.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(cfg.Trace.Path); err != nil {
			b.Fatal(err)
		}
	}
}
