package ckpt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcgs/internal/core"
	"mpcgs/internal/device"
	"mpcgs/internal/felsen"
	"mpcgs/internal/gtree"
	"mpcgs/internal/rng"
	"mpcgs/internal/seqgen"
	"mpcgs/internal/subst"
)

// fixtureTree simulates a random coalescent genealogy whose ages exercise
// the full mantissa.
func fixtureTree(t *testing.T, n int, seed uint64) *gtree.Tree {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = "seq" + string(rune('A'+i))
	}
	tree, err := gtree.RandomCoalescent(names, 1.0, rng.NewMT19937(uint32(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestTreeRoundTripExact: the newick-based tree codec preserves topology,
// node arena indices and bit-exact ages.
func TestTreeRoundTripExact(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tree := fixtureTree(t, 7, seed)
		got, err := DecodeTree(EncodeTree(tree))
		if err != nil {
			t.Fatal(err)
		}
		if got.Root != tree.Root {
			t.Fatalf("root %d != %d", got.Root, tree.Root)
		}
		for i := range tree.Nodes {
			w, g := tree.Nodes[i], got.Nodes[i]
			if w.Parent != g.Parent || w.Child != g.Child || w.Name != g.Name {
				t.Fatalf("node %d links differ: %+v vs %+v", i, g, w)
			}
			if math.Float64bits(w.Age) != math.Float64bits(g.Age) {
				t.Fatalf("node %d age not bit-identical: %x vs %x",
					i, math.Float64bits(g.Age), math.Float64bits(w.Age))
			}
		}
	}
}

// TestTreeRoundTripAwkwardNames: tip names requiring newick quoting
// survive the round-trip.
func TestTreeRoundTripAwkwardNames(t *testing.T) {
	names := []string{"plain", "with space", "par(en", "quo'te", "semi;colon"}
	tree, err := gtree.RandomCoalescent(names, 1.0, rng.NewMT19937(42))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTree(EncodeTree(tree))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.NTips(); i++ {
		if got.Nodes[i].Name != tree.Nodes[i].Name {
			t.Fatalf("tip %d name %q != %q", i, got.Nodes[i].Name, tree.Nodes[i].Name)
		}
	}
}

// TestDecodeTreeRejectsCorruption: a decoded tree is validated, and
// structural lies in the wire form are caught.
func TestDecodeTreeRejectsCorruption(t *testing.T) {
	tree := fixtureTree(t, 5, 3)
	base := EncodeTree(tree)

	bad := base
	bad.Ages = base.Ages[:len(base.Ages)-1]
	if _, err := DecodeTree(bad); err == nil {
		t.Error("short ages accepted")
	}
	bad = base
	bad.Tips = append([]string{}, base.Tips...)
	bad.Tips[0] = base.Tips[1] // duplicate
	if _, err := DecodeTree(bad); err == nil {
		t.Error("duplicate tip names accepted")
	}
	bad = base
	bad.Newick = strings.Replace(base.Newick, "#", "!", 1)
	if _, err := DecodeTree(bad); err == nil {
		t.Error("interior node without an arena index accepted")
	}
	bad = base
	bad.Ages = append([]string{}, base.Ages...)
	bad.Ages[len(bad.Ages)-1] = "-0x1p-1" // negative age breaks validation
	if _, err := DecodeTree(bad); err == nil {
		t.Error("invalid ages accepted")
	}
}

// TestRNGRoundTrip: a generator travels through the wire format and keeps
// drawing the identical sequence.
func TestRNGRoundTrip(t *testing.T) {
	m := rng.NewMT19937(7)
	for i := 0; i < 1234; i++ {
		m.Uint32()
	}
	dec, err := DecodeRNG(EncodeRNG(m.State()))
	if err != nil {
		t.Fatal(err)
	}
	r := &rng.MT19937{}
	if err := r.SetState(dec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if r.Uint32() != m.Uint32() {
			t.Fatalf("restored stream diverged at output %d", i)
		}
	}
}

// TestStepSnapshotWireRoundTrip runs each sampler with its trace spilled
// to a sidecar, snapshots it, pushes the snapshot through JSON, and
// requires the resumed run to be bit-identical — the end-to-end statement
// that the wire format loses nothing a chain needs. Every sampler step
// crosses the wire as a trace_ref, multichain's per-chain subs included.
func TestStepSnapshotWireRoundTrip(t *testing.T) {
	dev := device.Serial()
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 77)
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
	init, err := core.InitialTree(aln, 1.0, 78)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	for _, tc := range []struct {
		name string
		s    core.StepSampler
	}{
		{"mh", core.NewMH(eval)},
		{"gmh", core.NewGMH(eval, dev, 3)},
		{"heated", core.NewHeated(eval, dev, 2)},
		{"multichain", core.NewMultiChain(eval, dev, 2)},
	} {
		cfg := core.ChainConfig{Theta: 1.0, Burnin: 10, Samples: 80, Seed: 79,
			Trace: &core.TraceSpec{Path: filepath.Join(dir, tc.name+".trace")}}
		refCfg := cfg
		refCfg.Trace = &core.TraceSpec{Path: filepath.Join(dir, tc.name+"-uninterrupted.trace")}
		want, err := core.Run(tc.s, init, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := tc.s.Start(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 13; i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap, snapErr := run.Snapshot()
		if snapErr != nil {
			t.Fatal(snapErr)
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
		if tc.name == "multichain" {
			if wire.TraceRef != nil || len(wire.Subs) != 2 {
				t.Fatalf("multichain wire shape: ref=%v subs=%d", wire.TraceRef != nil, len(wire.Subs))
			}
			for i, sub := range wire.Subs {
				if sub.TraceRef == nil || !strings.HasSuffix(sub.TraceRef.Path, fmt.Sprintf(".trace.c%d", i)) {
					t.Fatalf("multichain sub %d does not reference its own sidecar: %+v", i, sub.TraceRef)
				}
			}
		} else if wire.TraceRef == nil {
			t.Fatalf("%s: wire step carries no trace_ref", tc.name)
		}
		decoded, err := DecodeStep(&wire)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := tc.s.Start(init, cfg)
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
		got, err := resumed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Samples.Stats) != len(want.Samples.Stats) {
			t.Fatalf("%s: trace lengths differ", tc.name)
		}
		for i := range want.Samples.Stats {
			if want.Samples.Stats[i] != got.Samples.Stats[i] ||
				want.Samples.LogLik[i] != got.Samples.LogLik[i] {
				t.Fatalf("%s: draw %d differs after wire round-trip", tc.name, i)
			}
		}
	}
}

// TestAdaptiveLadderWireRoundTrip: an adaptive heated run's spilling
// snapshot — whose ladder is mid-adaptation, with
// partially filled windows and a moved β schedule — survives the JSON
// wire bit-for-bit, so the resumed run finishes identical to the
// uninterrupted one.
func TestAdaptiveLadderWireRoundTrip(t *testing.T) {
	dev := device.Serial()
	aln, _, err := seqgen.SimulateData(6, 60, 1.0, 87)
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
	init, err := core.InitialTree(aln, 1.0, 88)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := core.ChainConfig{Theta: 1.0, Burnin: 50, Samples: 80, Seed: 89,
		Trace: &core.TraceSpec{Path: filepath.Join(dir, "uninterrupted.trace")}}
	h := core.NewHeated(eval, dev, 3)
	h.Adapt = true
	h.MaxTemp = 32
	h.SwapWindow = 8

	want, err := core.Run(h, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-burn-in (ladder still adapting) and post-burn-in (frozen).
	for _, kill := range []int{30, 70} {
		cfg.Trace = &core.TraceSpec{Path: filepath.Join(dir, fmt.Sprintf("kill%d.trace", kill))}
		run, err := h.Start(init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kill; i++ {
			if err := run.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap, snapErr := run.Snapshot()
		if snapErr != nil {
			t.Fatal(snapErr)
		}
		if snap.Ladder == nil {
			t.Fatal("heated snapshot carries no ladder state")
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
		if wire.Ladder == nil || !wire.Ladder.Adapt {
			t.Fatal("wire snapshot lost the ladder")
		}
		decoded, err := DecodeStep(&wire)
		if err != nil {
			t.Fatal(err)
		}
		// The decoded ladder state must be exactly the exported one.
		if len(decoded.Ladder.Betas) != len(snap.Ladder.Betas) {
			t.Fatal("ladder rung count changed on the wire")
		}
		for i := range snap.Ladder.Betas {
			if decoded.Ladder.Betas[i] != snap.Ladder.Betas[i] {
				t.Fatalf("ladder beta %d changed on the wire: %v vs %v",
					i, decoded.Ladder.Betas[i], snap.Ladder.Betas[i])
			}
		}
		for i := range snap.Ladder.Gaps {
			if decoded.Ladder.Gaps[i] != snap.Ladder.Gaps[i] {
				t.Fatalf("ladder gap %d changed on the wire", i)
			}
		}
		resumed, err := h.Start(init, cfg)
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
		got, err := resumed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Samples.Stats {
			if want.Samples.Stats[i] != got.Samples.Stats[i] ||
				want.Samples.LogLik[i] != got.Samples.LogLik[i] {
				t.Fatalf("kill=%d: draw %d differs after wire round-trip", kill, i)
			}
		}
		for i := range want.Betas {
			if want.Betas[i] != got.Betas[i] {
				t.Fatalf("kill=%d: final adapted beta %d differs", kill, i)
			}
		}
		for i := range want.PairSwapAttempts {
			if want.PairSwapAttempts[i] != got.PairSwapAttempts[i] ||
				want.PairSwaps[i] != got.PairSwaps[i] ||
				want.EstPairSwapAttempts[i] != got.EstPairSwapAttempts[i] ||
				want.EstPairSwaps[i] != got.EstPairSwaps[i] {
				t.Fatalf("kill=%d: pair %d swap counters differ", kill, i)
			}
		}
	}
}

// TestSaveLoad covers the file layer: atomic write, load, and version
// rejection.
func TestSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	j := &JobState{Name: "a", Fingerprint: "f1", Status: StatusDone, Theta: hexFloat(1.5), Steps: 10}
	if err := Save(dir, j); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion || got.Name != "a" || got.Fingerprint != "f1" || got.Steps != 10 {
		t.Fatalf("loaded %+v", got)
	}
	if err := Save(dir, &JobState{Name: "a", Fingerprint: "f1", Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(dir); err != nil || got.Status != StatusFailed || got.Error != "boom" {
		t.Fatalf("reloaded %+v, %v", got, err)
	}
	// No leftover temp files after the atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("directory contents: %v", entries)
	}
}

// TestAtomicWriteFailedRename: when the final rename fails (the target
// path is a directory), both writers report the error, leave what was at
// the target untouched and leave no temp file behind.
func TestAtomicWriteFailedRename(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		save       func(dir string) error
	}{
		{"job state", FileName, func(dir string) error {
			return Save(dir, &JobState{Name: "a", Status: StatusDone})
		}},
		{"job record", JobRecordName, func(dir string) error {
			return SaveJobRecord(dir, &JobRecord{ID: "x", Spec: JobSpec{Name: "x", Phylip: "1 1\na A\n", Theta: "0x1p+00"}})
		}},
	} {
		dir := t.TempDir()
		keep := filepath.Join(dir, tc.file, "previous")
		if err := os.MkdirAll(filepath.Dir(keep), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keep, []byte("previous contents"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.save(dir); err == nil {
			t.Fatalf("%s: write over a directory succeeded", tc.name)
		}
		if data, err := os.ReadFile(keep); err != nil || string(data) != "previous contents" {
			t.Fatalf("%s: previous target contents disturbed: %q, %v", tc.name, data, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != tc.file {
			t.Fatalf("%s: temp file left behind: %v", tc.name, entries)
		}
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), []byte(`{"version": 999, "jobs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "version 999") {
		t.Fatalf("unknown version not rejected: %v", err)
	}
	if err := os.WriteFile(Path(dir), []byte(`{"version": 0, "jobs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("version 0 not rejected")
	}
}

// TestLoadRejectsOldVersions: format-1 and format-2 checkpoints (inline
// traces) and format-3 ones (every job of a batch in one file) are no
// longer read. Load fails before decoding, naming the file, the version
// found and the version supported — even for a document that would
// otherwise decode cleanly.
func TestLoadRejectsOldVersions(t *testing.T) {
	for _, v := range []int{1, 2, 3} {
		dir := t.TempDir()
		doc := fmt.Sprintf(`{
 "version": %d,
 "jobs": [
  {"name": "old-done", "fingerprint": "fp1", "status": "done", "steps": 42, "theta": "0x1.8p+00"},
  {"name": "old-paused", "fingerprint": "fp2", "status": "paused", "steps": 7,
   "em": {"theta": "0x1p+00", "it": 0, "cur": {"newick": "(a:1,b:1)#2:0;", "ages": ["0x1p+00"], "tips": ["a","b"]}}}
 ]
}`, v)
		if err := os.WriteFile(Path(dir), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Load(dir)
		if err == nil {
			t.Fatalf("version-%d checkpoint loaded: %+v", v, b)
		}
		for _, want := range []string{Path(dir), fmt.Sprintf("version %d", v), fmt.Sprintf("only version %d", FormatVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d error %q does not mention %q", v, err, want)
			}
		}
	}
}

func TestLoadRejectsMalformedJobs(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(Path(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"version": 4, "name": "", "status": "done"}`)
	if _, err := Load(dir); err == nil {
		t.Error("nameless job accepted")
	}
	write(`{"version": 4, "name": "x", "status": "parked"}`)
	if _, err := Load(dir); err == nil {
		t.Error("unknown status accepted")
	}
	write(`{"version": 4, "name": "x", "status": "paused"}`)
	if _, err := Load(dir); err == nil {
		t.Error("paused job without EM state accepted")
	}
}
