// Package ckpt is the checkpoint/restore subsystem: a versioned on-disk
// snapshot format for runs of the sampler, plus the encode/decode plumbing
// between the wire format and the live snapshot types of internal/core.
//
// # What a checkpoint is
//
// A checkpoint captures one estimation job at a between-steps boundary —
// the only point where a run's state is consistent — so a killed process
// can resume it and produce traces bit-identical to the uninterrupted
// run. Each job owns a checkpoint directory holding its state file and
// its trace sidecar; a batch of jobs is a directory of such job
// directories, one per job.
//
// Only non-derivable state is stored: tree topology and exact node ages,
// every PRNG state (the full 624-word Mersenne Twister vectors), a
// reference into the run's append-only trace sidecar, counters, and the
// EM loop position. Everything else — conditional-likelihood caches,
// sufficient statistics, age buffers, the draws themselves — is a pure
// function of that state (and the sidecar) and is rebuilt on restore.
//
// # Wire format
//
// The file is a single JSON document, written atomically (temp file,
// fsync, rename, directory fsync) so a crash mid-write never corrupts an
// existing checkpoint and a completed write survives power loss. It
// leads with a format version; Load accepts exactly FormatVersion and
// rejects every other version before decoding anything else.
//
// There is one checkpoint format. Every sampler step carries a sidecar
// trace_ref; a snapshot holding its draws in memory cannot be encoded,
// so a run that does not spill its trace can never reach disk. Older
// formats are no longer read: loading one fails with an error naming
// the file, the version found and the version supported — resume it
// with a build that still reads it and let the run finish, or start it
// afresh.
//
// Exactness is non-negotiable: resumed chains must draw identical floats.
// Genealogies travel as a newick round-trip (human-readable topology, with
// interior labels carrying the node arena indices the proposal kernel's
// target-picking depends on) paired with exact hexadecimal float ages;
// scalar floats that feed computation (θ, β) travel as hexadecimal float
// literals. JSON's shortest-decimal floats are kept only for
// reporting-grade history fields.
package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// FormatVersion is the checkpoint format this build writes, and the
// only one it loads.
//
// Version history:
//
//	1 — initial format: inline traces, no ladder state. No longer read.
//	2 — heated snapshots carry the temperature-ladder controller state
//	    (adapted β schedule, per-pair swap windows, adaptation clock),
//	    which adaptive MC³ makes runtime state. Traces still inline. No
//	    longer read.
//	3 — step snapshots carry a sidecar trace reference (trace_ref:
//	    durable offset and draw counts into the append-only trace file)
//	    instead of the inline trace, making checkpoint size independent
//	    of how many draws the run has recorded. Since versions 1 and 2
//	    were removed, trace_ref is required on every sampler step.
//	    One file held every job of a batch. No longer read.
//	4 — one file per job: the state file holds a single job's record
//	    and sits in that job's own checkpoint directory, next to its
//	    trace sidecar. The record's fields are those of a version-3
//	    batch entry.
const FormatVersion = 4

// FileName is the state file inside a job's checkpoint directory. It
// keeps the name version 3 gave the whole-batch file, so a directory an
// older build wrote is found and refused by Load's version check rather
// than mistaken for an empty one and started afresh.
const FileName = "batch.json"

// Job status values.
const (
	// StatusPaused marks a job interrupted at a step boundary; EM holds
	// its resumable state.
	StatusPaused = "paused"
	// StatusDone marks a finished job; Theta/History/Steps hold its
	// result and a resume skips it.
	StatusDone = "done"
	// StatusFailed marks a job that ended in an error; a resume reports
	// the recorded error without re-running it.
	StatusFailed = "failed"
)

// JobState is the on-disk checkpoint of one job: finished (its result is
// carried so a resume can skip the work and still report it), failed, or
// paused (a resumable EM snapshot).
type JobState struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Fingerprint hashes the job's spec and alignment; restore refuses to
	// apply a snapshot to a job whose manifest entry changed since it was
	// taken.
	Fingerprint string `json:"fingerprint"`
	Status      string `json:"status"`
	// Steps counts sampler transitions driven so far (informational).
	Steps int `json:"steps,omitempty"`
	// Theta and History carry a finished job's result.
	Theta   string        `json:"theta,omitempty"`
	History []EMIteration `json:"history,omitempty"`
	// Error carries a failed job's error text.
	Error string `json:"error,omitempty"`
	// EM is a paused job's resumable state.
	EM *EMState `json:"em,omitempty"`
}

// EMIteration is one EM round in wire form. All four fields are
// hexadecimal floats: ThetaIn/ThetaOut round-trip into the resumed loop's
// driving value and MeanLogLik may legitimately be -Inf, which plain JSON
// numbers cannot carry.
type EMIteration struct {
	ThetaIn        string `json:"theta_in"`
	ThetaOut       string `json:"theta_out"`
	AcceptanceRate string `json:"acceptance_rate"`
	MeanLogLik     string `json:"mean_loglik"`
}

// EMState is the wire form of core.EMSnapshot.
type EMState struct {
	Theta   string        `json:"theta"` // hex float
	It      int           `json:"it"`
	Cur     *Tree         `json:"cur"`
	History []EMIteration `json:"history,omitempty"`
	Active  *Step         `json:"active,omitempty"`
}

// Step is the wire form of core.StepSnapshot.
type Step struct {
	Sampler string     `json:"sampler"`
	Step    int        `json:"step"`
	Cur     int        `json:"cur,omitempty"`
	Host    *RNGState  `json:"host,omitempty"`
	Streams []RNGState `json:"streams,omitempty"`
	Chains  []Chain    `json:"chains,omitempty"`
	Ladder  *Ladder    `json:"ladder,omitempty"`
	// TraceRef locates the step's draws in the append-only sidecar
	// file: the snapshot carries only the durable offsets. Every step
	// but the multichain wrapper (whose per-chain subs carry their own)
	// has one.
	TraceRef *TraceRef `json:"trace_ref,omitempty"`

	Accepted        int `json:"accepted,omitempty"`
	Proposals       int `json:"proposals,omitempty"`
	FailedProposals int `json:"failed_proposals,omitempty"`
	Swaps           int `json:"swaps,omitempty"`
	SwapAttempts    int `json:"swap_attempts,omitempty"`

	Subs []*Step `json:"subs,omitempty"`
}

// Chain is the wire form of core.ChainSnapshot.
type Chain struct {
	Tree   Tree   `json:"tree"`
	Beta   string `json:"beta"` // hex float
	Serial bool   `json:"serial,omitempty"`
}

// Ladder is the wire form of tempering.State: the temperature-ladder
// controller's runtime state carried by every heated snapshot. Betas and
// gaps are hexadecimal floats (the schedule must round-trip exactly for
// bit-identical resumes); each pair's sliding window travels as base64 of
// its 0/1 outcome bytes, oldest first.
type Ladder struct {
	Adapt       bool     `json:"adapt,omitempty"`
	Window      int      `json:"window"`
	Betas       []string `json:"betas"`
	Gaps        []string `json:"gaps,omitempty"`
	Attempts    []int64  `json:"attempts,omitempty"`
	Accepts     []int64  `json:"accepts,omitempty"`
	EstAttempts []int64  `json:"est_attempts,omitempty"`
	EstAccepts  []int64  `json:"est_accepts,omitempty"`
	Windows     []string `json:"windows,omitempty"`
	Adapts      int64    `json:"adapts,omitempty"`
}

// Tree is a genealogy in wire form: a newick rendering of the topology
// (tips by name, interior nodes labelled #<arena-index> so node identities
// survive the round-trip — the proposal kernel addresses neighbourhoods by
// arena index) plus exact hexadecimal ages for every interior node in
// arena order, and the tip names in arena order. Branch lengths in the
// newick string are decimal renderings for human eyes; the ages field is
// authoritative on restore.
type Tree struct {
	Newick string   `json:"newick"`
	Ages   []string `json:"ages"`
	Tips   []string `json:"tips"`
}

// RNGState is the wire form of rng.MTState: the 624-word state vector as
// base64 of its little-endian bytes, plus the read index.
type RNGState struct {
	State string `json:"state"`
	Index int    `json:"index"`
}

// TraceRef is the wire form of core.TraceRef: a reference into the
// append-only trace sidecar instead of an inline copy of the draws.
// Offsets are bytes, not draws; both always land on durable frame
// boundaries (the recorder flushes before snapshotting). ESS and RHat
// are hexadecimal floats — RHat is legitimately NaN before the online
// diagnostics have enough batches, which plain JSON numbers cannot
// carry.
type TraceRef struct {
	Path       string `json:"path,omitempty"`
	NAges      int    `json:"n_ages"`
	Offset     int64  `json:"offset"`
	Draws      int    `json:"draws"`
	PassOffset int64  `json:"pass_offset"`
	PassDraws  int    `json:"pass_draws"`
	ESS        string `json:"ess,omitempty"`
	RHat       string `json:"rhat,omitempty"`
	Stopped    bool   `json:"stopped,omitempty"`
}

// Path returns the state file path inside a job's checkpoint directory.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// Save writes the job's checkpoint into dir atomically and durably: see
// writeAtomic. Readers see either the old snapshot or the new one, never
// a torn write.
func Save(dir string, j *JobState) error {
	j.Version = FormatVersion
	return writeAtomic(dir, ".state-*.tmp", Path(dir), j)
}

// writeAtomic marshals v into a temp file inside dir (created if
// missing), fsyncs it, renames it over path and fsyncs dir, so the new
// contents are on disk before the call returns and a crash at any point
// leaves either the previous file or the new one. On failure the temp
// file is removed and path is untouched.
func writeAtomic(dir, pattern, path string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads the job checkpoint from dir. Any format version other than
// FormatVersion is rejected before anything else is decoded. A missing
// state file is reported as an error wrapping fs.ErrNotExist.
func Load(dir string) (*JobState, error) {
	raw, err := os.ReadFile(Path(dir))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", Path(dir), err)
	}
	if probe.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: %s: checkpoint format version %d is not supported; this build reads only version %d",
			Path(dir), probe.Version, FormatVersion)
	}
	var j JobState
	if err := json.Unmarshal(raw, &j); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", Path(dir), err)
	}
	if j.Name == "" {
		return nil, fmt.Errorf("ckpt: %s: job has no name", Path(dir))
	}
	switch j.Status {
	case StatusPaused:
		if j.EM == nil {
			return nil, fmt.Errorf("ckpt: %s: paused job %q has no EM state", Path(dir), j.Name)
		}
	case StatusDone, StatusFailed:
	default:
		return nil, fmt.Errorf("ckpt: %s: job %q has unknown status %q", Path(dir), j.Name, j.Status)
	}
	return &j, nil
}
