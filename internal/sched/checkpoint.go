package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mpcgs/internal/ckpt"
)

// CheckpointOptions enables periodic checkpointing.
type CheckpointOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing. A
	// submitted job owns Dir; a batch gives each job the subdirectory
	// named by its CheckpointKey.
	Dir string
	// Every is the per-job snapshot cadence in sampler transitions.
	// Non-positive selects 1000. Snapshots are only ever taken by the
	// driver that owns the job, after its quantum — i.e. at a step
	// boundary, the one point where a run's state is consistent — so a
	// checkpoint can never observe a job mid-transition no matter how the
	// drivers are scheduled.
	Every int
}

func (c CheckpointOptions) enabled() bool { return c.Dir != "" }

func (c CheckpointOptions) every() int {
	if c.Every <= 0 {
		return 1000
	}
	return c.Every
}

// Fingerprint identifies a job spec and its data: resume refuses to apply
// a snapshot to a job whose fingerprint changed, because a changed spec
// (or dataset) makes the saved chain state meaningless. It is computed
// over the defaults-applied job, so the effective configuration —
// including proposal/chain counts that default to the pool's worker
// count — is what must match.
func Fingerprint(j Job) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(v uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	writeStr("mpcgs-job-v1")
	writeStr(j.Name)
	writeStr(j.Sampler)
	writeStr(j.Model)
	writeInt(uint64(j.Proposals))
	writeInt(uint64(j.Chains))
	writeInt(uint64(j.Burnin))
	writeInt(uint64(j.Samples))
	writeInt(uint64(j.EMIterations))
	writeInt(j.Seed)
	writeInt(math.Float64bits(j.InitialTheta))
	// Tempering knobs joined the spec after the base fields. They are
	// hashed only when any is set, so a job that leaves them unset keeps
	// the fingerprint its existing checkpoints were written with.
	if j.MaxTemp != 0 || j.SwapEvery != 0 || j.AdaptLadder || j.SwapWindow != 0 {
		writeStr("tempering")
		writeInt(math.Float64bits(j.MaxTemp))
		writeInt(uint64(j.SwapEvery))
		adapt := uint64(0)
		if j.AdaptLadder {
			adapt = 1
		}
		writeInt(adapt)
		writeInt(uint64(j.SwapWindow))
	}
	// Convergence stop targets joined later still; the same only-if-set
	// rule keeps existing fingerprints stable.
	if j.ESSTarget != 0 || j.RHatTarget != 0 {
		writeStr("stoptargets")
		writeInt(math.Float64bits(j.ESSTarget))
		writeInt(math.Float64bits(j.RHatTarget))
	}
	if j.Alignment != nil {
		writeInt(uint64(j.Alignment.NSeq()))
		for i, name := range j.Alignment.Names {
			writeStr(name)
			writeStr(j.Alignment.Seqs[i].String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ckptWriter writes one job's checkpoint, each record replacing the
// last. A nil writer (no checkpointing) records nothing. Only the
// goroutine that owns the job calls it — the submitter during admission,
// then the driver stepping it, then the drain — so it needs no lock.
type ckptWriter struct {
	dir, name, fingerprint string
	// err is the first write failure. It sticks: a job whose checkpoints
	// silently failed is not resumable, so its result must say so.
	err error
}

// save writes the job's next record — its status and what that status
// carries — atomically, and returns the first write failure so far.
func (w *ckptWriter) save(rec ckpt.JobState) error {
	if w == nil {
		return nil
	}
	rec.Name, rec.Fingerprint = w.name, w.fingerprint
	if err := ckpt.Save(w.dir, &rec); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// failedState is the record of a job that ended in err.
func failedState(err error, steps int) ckpt.JobState {
	return ckpt.JobState{Status: ckpt.StatusFailed, Steps: steps, Error: err.Error()}
}

// doneState is the record of a finished job; restoreDone reads it back.
func doneState(res *Result) ckpt.JobState {
	return ckpt.JobState{
		Status:  ckpt.StatusDone,
		Steps:   res.Steps,
		Theta:   strconv.FormatFloat(res.Theta, 'x', -1, 64),
		History: ckpt.EncodeHistory(res.History),
	}
}

// clearJobDir readies a job's checkpoint directory for a fresh start:
// the directory exists and holds neither a state file nor trace
// sidecars from a previous incarnation. A fresh start must not append
// after stale draws (the file would grow without bound across restarts
// and a changed tree size would poison the open), and a later resume
// must not find a stale snapshot. Multichain runs fan out to per-chain
// "<sidecar>.c<i>" files, so those go too.
func clearJobDir(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	sidecar := TracePath(dir, name)
	stale, _ := filepath.Glob(sidecar + ".c*")
	for _, path := range append([]string{ckpt.Path(dir), sidecar}, stale...) {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("sched: %w", err)
		}
	}
	return nil
}

// TracePath is a job's trace-sidecar file inside its checkpoint
// directory dir: spilling is active exactly when checkpointing is,
// because the sidecar is what makes the checkpoint O(interval). With no
// checkpoint directory the recorder stays in memory and the path is
// empty.
func TracePath(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, CheckpointKey(name)+".trace")
}

// restoreDone rebuilds a finished job's Result from its checkpoint record.
func restoreDone(entry *ckpt.JobState, res *Result) error {
	theta, err := strconv.ParseFloat(entry.Theta, 64)
	if err != nil {
		return fmt.Errorf("sched: checkpoint theta %q: %w", entry.Theta, err)
	}
	history, err := ckpt.DecodeHistory(entry.History)
	if err != nil {
		return err
	}
	res.Theta = theta
	res.History = history
	res.Steps = entry.Steps
	res.Resumed = true
	return nil
}
