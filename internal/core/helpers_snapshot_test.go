package core

import (
	"path/filepath"
	"testing"
)

// mustSnapshot exports a stepper's snapshot, failing the test on the
// (spill-mode-only) flush error path.
func mustSnapshot(t *testing.T, run SnapshotStepper) *StepSnapshot {
	t.Helper()
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// spilling returns cfg recording to the sidecar dir/name.trace, the only
// recording mode whose snapshots restore.
func spilling(cfg ChainConfig, dir, name string) ChainConfig {
	cfg.Trace = &TraceSpec{Path: filepath.Join(dir, name+".trace")}
	return cfg
}
