package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync"

	"mpcgs/internal/ckpt"
)

// CheckpointOptions enables periodic batch checkpointing.
type CheckpointOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
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

// ckptWriter maintains the in-memory image of a checkpoint — one slot
// per job — and writes it to disk atomically. A slot is only mutated by
// its job's admission or by the driver that owns the job, so the mutex
// only serializes the image against concurrent flushes.
type ckptWriter struct {
	opts CheckpointOptions

	mu       sync.Mutex
	batch    ckpt.Batch
	firstErr error
}

func newCkptWriter(opts CheckpointOptions, nJobs int) *ckptWriter {
	if !opts.enabled() {
		return nil
	}
	return &ckptWriter{
		opts:  opts,
		batch: ckpt.Batch{Jobs: make([]ckpt.BatchJob, nJobs)},
	}
}

// initJob registers a job's identity. Until some real state lands (a
// snapshot, a result, an error) the entry has no status and flush elides
// it from the file; a resume starts such a job fresh.
func (w *ckptWriter) initJob(index int, name, fingerprint string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batch.Jobs[index] = ckpt.BatchJob{Name: name, Fingerprint: fingerprint}
}

// keep carries a prior checkpoint entry forward unchanged (finished and
// failed jobs, and paused jobs until their first new snapshot).
func (w *ckptWriter) keep(index int, entry ckpt.BatchJob) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batch.Jobs[index] = entry
}

// setPaused records a job's resumable snapshot.
func (w *ckptWriter) setPaused(index int, em *ckpt.EMState, steps int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	j := &w.batch.Jobs[index]
	j.Status = ckpt.StatusPaused
	j.Steps = steps
	j.EM = em
	j.Theta, j.History, j.Error = "", nil, ""
}

// setDone records a finished job's result.
func (w *ckptWriter) setDone(index int, res *Result) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	j := &w.batch.Jobs[index]
	j.Status = ckpt.StatusDone
	j.Steps = res.Steps
	j.Theta = strconv.FormatFloat(res.Theta, 'x', -1, 64)
	j.History = ckpt.EncodeHistory(res.History)
	j.EM, j.Error = nil, ""
}

// setFailed records a job's terminal error.
func (w *ckptWriter) setFailed(index int, err error, steps int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	j := &w.batch.Jobs[index]
	j.Status = ckpt.StatusFailed
	j.Steps = steps
	j.Error = err.Error()
	j.EM, j.Theta, j.History = nil, "", nil
}

// flush writes the current image to disk atomically. Jobs that have no
// recorded state yet (admitted but never snapshotted) are elided: a
// resume simply starts them fresh. The first write error is remembered
// and surfaced by RunBatch, since a batch whose checkpoints silently
// failed is not resumable.
func (w *ckptWriter) flush() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := ckpt.Batch{Jobs: make([]ckpt.BatchJob, 0, len(w.batch.Jobs))}
	for _, j := range w.batch.Jobs {
		if j.Status == "" {
			continue
		}
		out.Jobs = append(out.Jobs, j)
	}
	if err := ckpt.Save(w.opts.Dir, &out); err != nil && w.firstErr == nil {
		w.firstErr = err
	}
}

// err returns the first checkpoint write failure, if any.
func (w *ckptWriter) err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

// resumeIndex maps a loaded checkpoint by job name.
func resumeIndex(b *ckpt.Batch) map[string]ckpt.BatchJob {
	if b == nil {
		return nil
	}
	out := make(map[string]ckpt.BatchJob, len(b.Jobs))
	for _, j := range b.Jobs {
		out[j.Name] = j
	}
	return out
}

// restoreDone rebuilds a finished job's Result from its checkpoint entry.
func restoreDone(entry ckpt.BatchJob, res *Result) error {
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
