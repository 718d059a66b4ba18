package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Job-queue manifest records: the durable admission log of the serving
// daemon. The daemon writes one JobRecord per accepted submission —
// before acknowledging it — into the job's own state directory, next to
// the job's checkpoint directory:
//
//	<state>/jobs/<id>/job.json    the submission (this file)
//	<state>/jobs/<id>/ckpt/       the job's checkpoint (JobState + trace sidecar)
//
// A restarted daemon rescans the records in submission order and
// resubmits every job, resuming from its checkpoint when one exists.

// JobRecordVersion is the on-disk format version of a JobRecord.
const JobRecordVersion = 1

// JobRecordName is the record's filename inside the job directory.
const JobRecordName = "job.json"

// JobRecord is one durably enqueued submission.
type JobRecord struct {
	Version int `json:"version"`
	// ID is the job's state-directory name (its sanitized identity).
	ID string `json:"id"`
	// Seq is the daemon-assigned admission sequence; restarts resubmit
	// records in Seq order so scheduling state rebuilds deterministically.
	Seq int64 `json:"seq"`
	// Tenant and Priority are the submission's scheduling knobs.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Submitted is the acceptance time, RFC 3339 (informational only: it
	// never feeds the fingerprint or the schedule).
	Submitted string  `json:"submitted,omitempty"`
	Spec      JobSpec `json:"spec"`
}

// JobSpec is the one JSON form of an estimation job: a batch-manifest
// entry, the body of a daemon submission and the spec of a journaled
// record all decode into it, and sched.JobFromSpec is the only mapping
// onto a scheduler job. Phylip is a file path in a manifest and verbatim
// PHYLIP text in a submission. Floats are Hex, so a journaled spec
// round-trips bit-identically — the spec is hashed into the resume
// fingerprint, and a float that changed in transit would strand the
// job's checkpoint. Proposals, Chains and AdaptLadder are pointers so
// an omitted field stays distinguishable from an explicit zero or false.
type JobSpec struct {
	Name         string `json:"name"`
	Phylip       string `json:"phylip"`
	Theta        Hex    `json:"theta"`
	Sampler      string `json:"sampler,omitempty"`
	Model        string `json:"model,omitempty"`
	Proposals    *int   `json:"proposals,omitempty"`
	Chains       *int   `json:"chains,omitempty"`
	Burnin       int    `json:"burnin,omitempty"`
	Samples      int    `json:"samples,omitempty"`
	EMIterations int    `json:"em_iterations,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	MaxTemp      Hex    `json:"max_temp,omitempty"`
	SwapEvery    int    `json:"swap_every,omitempty"`
	AdaptLadder  *bool  `json:"adapt_ladder,omitempty"`
	SwapWindow   int    `json:"swap_window,omitempty"`
	ESSTarget    Hex    `json:"ess_target,omitempty"`
	RHatTarget   Hex    `json:"rhat_target,omitempty"`
}

// Hex is a spec float in wire form: its exact hexadecimal literal (see
// HexFloat), with zero stored as "" so that an unset float is omitted.
// It decodes from a JSON number as well as from a string in any
// strconv spelling, and always stores the canonical literal, so a
// client's 0.3 and "0x1.3333333333333p-02" journal identically.
type Hex string

// UnmarshalJSON reads a JSON number or string; null leaves h unchanged.
func (h *Hex) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == "null" {
		return nil
	}
	if b[0] == '"' {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
	}
	f, err := parseHexFloat(s)
	if err != nil {
		return err
	}
	*h = ""
	if f != 0 {
		*h = Hex(hexFloat(f))
	}
	return nil
}

// Float returns the value h holds ("" is zero).
func (h Hex) Float() (float64, error) {
	if h == "" {
		return 0, nil
	}
	return parseHexFloat(string(h))
}

// DecodeStrict decodes exactly one JSON value from r into v, refusing
// unknown fields and anything but whitespace after the value: the
// decode of every hand-written input (batch manifests, submissions).
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// HexFloat renders f as an exact hexadecimal float literal — the wire
// form every ckpt float uses (±Inf and NaN render as their strconv
// spellings).
func HexFloat(f float64) string { return hexFloat(f) }

// ParseHexFloat reads a float written by HexFloat (any strconv-readable
// spelling is accepted).
func ParseHexFloat(s string) (float64, error) { return parseHexFloat(s) }

// JobRecordPath returns the record path inside a job directory.
func JobRecordPath(dir string) string { return filepath.Join(dir, JobRecordName) }

// SaveJobRecord writes the record into the job directory atomically and
// durably (see writeAtomic): a crash mid-write leaves either no record or
// a whole one, never a torn acknowledgment, and a record the daemon has
// acknowledged survives power loss.
func SaveJobRecord(dir string, rec *JobRecord) error {
	rec.Version = JobRecordVersion
	return writeAtomic(dir, ".job-*.tmp", JobRecordPath(dir), rec)
}

// LoadJobRecord reads one record, rejecting unknown versions and records
// missing their identity.
func LoadJobRecord(dir string) (*JobRecord, error) {
	path := JobRecordPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var rec JobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	if rec.Version != JobRecordVersion {
		return nil, fmt.Errorf("ckpt: %s: job record version %d not supported by this build (want %d)",
			path, rec.Version, JobRecordVersion)
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("ckpt: %s: job record has no id", path)
	}
	if rec.Spec.Name == "" {
		return nil, fmt.Errorf("ckpt: %s: job record has no spec name", path)
	}
	if rec.Spec.Phylip == "" {
		return nil, fmt.Errorf("ckpt: %s: job record has no alignment", path)
	}
	return &rec, nil
}

// ScanJobRecords loads every job record under root (one subdirectory per
// job), in admission order (Seq, then ID). A missing root is an empty
// queue, not an error; a directory whose record is unreadable or corrupt
// is an error — silently skipping it would silently drop an acknowledged
// job.
func ScanJobRecords(root string) ([]*JobRecord, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var recs []*JobRecord
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := LoadJobRecord(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, err
		}
		if rec.ID != e.Name() {
			return nil, fmt.Errorf("ckpt: %s: job record id %q does not match its directory",
				filepath.Join(root, e.Name()), rec.ID)
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Seq != recs[j].Seq {
			return recs[i].Seq < recs[j].Seq
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, nil
}
