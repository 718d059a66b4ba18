package core

import "testing"

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
