package ckpt

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// spillFixture builds a sampler and starting tree for the sidecar wire
// tests.
func spillFixture(t *testing.T, seed uint64) (core.StepSampler, *gtree.Tree) {
	t.Helper()
	dev := device.Serial()
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := subst.NewF81(aln.BaseFreqs(), true)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := felsen.New(model, aln, dev)
	if err != nil {
		t.Fatal(err)
	}
	init, err := core.InitialTree(aln, 1.0, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewGMH(eval, dev, 3), init
}

// TestTraceRefWireRoundTrip is the format-v3 statement: a spilling run's
// snapshot carries a sidecar reference instead of the trace, the
// reference survives the JSON wire bit-for-bit, and the resumed run —
// replaying the sidecar through the reference — finishes identical to
// the uninterrupted one.
func TestTraceRefWireRoundTrip(t *testing.T) {
	s, init := spillFixture(t, 511)
	dir := t.TempDir()
	cfg := core.ChainConfig{Theta: 1.0, Burnin: 10, Samples: 80, Seed: 512,
		Trace: &core.TraceSpec{Path: filepath.Join(dir, "ref.trace")}}

	refCfg := cfg
	refCfg.Trace = &core.TraceSpec{Path: filepath.Join(dir, "uninterrupted.trace")}
	want, err := core.Run(s, init, refCfg)
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
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceRef == nil {
		t.Fatal("spilling snapshot carries no sidecar reference")
	}

	enc, err := EncodeStep(snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var wire Step
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStep(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, wantRef := decoded.TraceRef, snap.TraceRef
	if got.Path != wantRef.Path || got.NAges != wantRef.NAges ||
		got.Offset != wantRef.Offset || got.Draws != wantRef.Draws ||
		got.PassOffset != wantRef.PassOffset || got.PassDraws != wantRef.PassDraws ||
		got.Stopped != wantRef.Stopped {
		t.Fatalf("trace ref changed on the wire: %+v vs %+v", got, wantRef)
	}
	if math.Float64bits(got.ESS) != math.Float64bits(wantRef.ESS) ||
		math.Float64bits(got.RHat) != math.Float64bits(wantRef.RHat) {
		t.Fatalf("trace ref diagnostics not bit-identical: %x/%x vs %x/%x",
			math.Float64bits(got.ESS), math.Float64bits(got.RHat),
			math.Float64bits(wantRef.ESS), math.Float64bits(wantRef.RHat))
	}

	resumed, err := s.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(decoded); err != nil {
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
	if len(res.Samples.Stats) != len(want.Samples.Stats) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res.Samples.Stats), len(want.Samples.Stats))
	}
	for i := range want.Samples.Stats {
		if want.Samples.Stats[i] != res.Samples.Stats[i] ||
			want.Samples.LogLik[i] != res.Samples.LogLik[i] {
			t.Fatalf("draw %d differs after sidecar wire round-trip", i)
		}
	}
}

// TestCheckpointSizeIndependentOfSamples pins the tentpole claim: with
// the trace offloaded to the sidecar, the encoded snapshot does not grow
// with the number of recorded draws — checkpoints are O(interval), not
// O(samples).
func TestCheckpointSizeIndependentOfSamples(t *testing.T) {
	s, init := spillFixture(t, 521)
	cfg := core.ChainConfig{Theta: 1.0, Burnin: 20, Samples: 2000, Seed: 522,
		Trace: &core.TraceSpec{Path: filepath.Join(t.TempDir(), "size.trace")}}
	run, err := s.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizeAt := func(steps int) int {
		t.Helper()
		for i := 0; i < steps; i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := run.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeStep(snap)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	early := sizeAt(30)
	late := sizeAt(1200)
	// Only counter digits and the sidecar offset may get longer; any
	// real growth means trace data leaked back into the snapshot.
	if slack := 64; late > early+slack {
		t.Fatalf("checkpoint grew with the run: %d bytes at step 30, %d at step 1230", early, late)
	}
}

// TestEncodeStepRejectsInMemoryTrace: a run that records in memory
// cannot reach disk — encoding its step or EM snapshot fails instead of
// silently writing a checkpoint no build can load.
func TestEncodeStepRejectsInMemoryTrace(t *testing.T) {
	s, init := spillFixture(t, 531)
	cfg := core.ChainConfig{Theta: 1.0, Burnin: 10, Samples: 60, Seed: 532}
	run, err := s.Start(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceRef != nil {
		t.Fatal("in-memory snapshot carries a sidecar reference")
	}
	if w, err := EncodeStep(snap); err == nil || !strings.Contains(err.Error(), "in memory") {
		t.Fatalf("in-memory step snapshot encoded: %+v, %v", w, err)
	}
	em := &core.EMSnapshot{Theta: 1, Cur: init, Active: snap}
	if w, err := EncodeEM(em); err == nil {
		t.Fatalf("EM snapshot with an in-memory pass encoded: %+v", w)
	}
	mc := &core.StepSnapshot{Sampler: "multichain", Streams: snap.Streams, Chains: snap.Chains}
	if w, err := EncodeStep(mc); err == nil {
		t.Fatalf("multichain snapshot without a trace_ref encoded: %+v", w)
	}
}

// TestDecodeStepRequiresTraceRef: every sampler step, multichain
// included, must reference its sidecar.
func TestDecodeStepRequiresTraceRef(t *testing.T) {
	ref := &TraceRef{Path: "x.trace", NAges: 5, Offset: 16, Draws: 0}
	for _, sampler := range []string{"mh", "gmh", "heated", "multichain"} {
		if _, err := DecodeStep(&Step{Sampler: sampler}); err == nil || !strings.Contains(err.Error(), "trace_ref") {
			t.Errorf("%s step without trace_ref decoded: %v", sampler, err)
		}
		if _, err := DecodeStep(&Step{Sampler: sampler, TraceRef: ref}); err != nil {
			t.Errorf("%s step with trace_ref rejected: %v", sampler, err)
		}
	}
}

// TestDecodeTraceRefValidation: structural lies in a wire sidecar
// reference are caught at decode time.
func TestDecodeTraceRefValidation(t *testing.T) {
	good := TraceRef{Path: "x.trace", NAges: 5, Offset: 96, Draws: 2,
		PassOffset: 16, PassDraws: 1, ESS: "0x1.9p+06", RHat: "0x1.02p+00"}
	if r, err := DecodeTraceRef(nil); r != nil || err != nil {
		t.Fatalf("nil ref round-trip: %v, %v", r, err)
	}
	if r, err := DecodeTraceRef(&good); err != nil || r.ESS != 100 {
		t.Fatalf("valid ref rejected: %+v, %v", r, err)
	}
	for name, mutate := range map[string]func(*TraceRef){
		"zero ages":             func(w *TraceRef) { w.NAges = 0 },
		"negative draws":        func(w *TraceRef) { w.Draws = -1 },
		"pass draws over total": func(w *TraceRef) { w.PassDraws = w.Draws + 1 },
		"negative offset":       func(w *TraceRef) { w.Offset = -1 },
		"pass offset past end":  func(w *TraceRef) { w.PassOffset = w.Offset + 1 },
		"malformed ess":         func(w *TraceRef) { w.ESS = "not-a-float" },
		"malformed rhat":        func(w *TraceRef) { w.RHat = "0x1.zzp+00" },
	} {
		bad := good
		mutate(&bad)
		if _, err := DecodeTraceRef(&bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
