package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/sched"
)

// The records under testdata/journal were journaled by the daemon
// before submissions, manifests and the journal shared one spec type
// (ckpt.JobSpec with Hex floats and pointer counts); the submit bodies
// beside them are what was POSTed. They pin the journal format across
// that change: old records must replay into the same jobs, with the
// same checkpoint fingerprints, and the same bodies must still be
// journaled byte for byte.

var submittedField = regexp.MustCompile(`"submitted": "[^"]*"`)

// TestJournalReplaysParentRecords: each committed record reloads
// through LoadJobRecord and JobFromSpec into the job it was journaled
// from, and hashes to the fingerprint its checkpoints were written with.
func TestJournalReplaysParentRecords(t *testing.T) {
	cases := []struct {
		id          string
		want        sched.Job
		fingerprint string
	}{
		{
			id: "lab--compat-heated",
			want: sched.Job{
				Name: "compat-heated", InitialTheta: 0.3, Sampler: "heated", Model: "f84",
				Proposals: 2, Chains: 3, MaxTemp: 12.5, SwapEvery: 2, AdaptLadder: true, SwapWindow: 16,
				Burnin: 40, Samples: 200, EMIterations: 2, Seed: 17, ESSTarget: 150.5, RHatTarget: 1.05,
			},
			fingerprint: "0996e641a374d2ff4abe20d7a3eadce95840c953168a99ecdfc65c15fa99b47b",
		},
		{
			id: "plain",
			want: sched.Job{
				Name: "plain", InitialTheta: 0.7, Burnin: 30, Samples: 100, EMIterations: 1, Seed: 7,
			},
			fingerprint: "489226582ced309a01eacfe42eb72074229791bb8aa274ae791b46206e63b210",
		},
	}
	for _, tc := range cases {
		rec, err := ckpt.LoadJobRecord(filepath.Join("testdata", "journal", tc.id))
		if err != nil {
			t.Fatal(err)
		}
		job, err := specJob(rec.Spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if job.Alignment == nil || job.Alignment.NSeq() != 5 || job.Alignment.SeqLen() != 40 {
			t.Fatalf("%s: alignment not restored", tc.id)
		}
		got := job
		got.Alignment = nil
		if got != tc.want {
			t.Errorf("%s: replayed job\n %+v\nwant\n %+v", tc.id, got, tc.want)
		}
		if fp := sched.Fingerprint(job); fp != tc.fingerprint {
			t.Errorf("%s: fingerprint %s, want %s — the job's existing checkpoints would no longer resume", tc.id, fp, tc.fingerprint)
		}
	}
}

// TestJournalBytesMatchParent: the committed submit bodies, POSTed in
// their original order to a fresh daemon, are journaled byte for byte as
// before (the acceptance timestamp aside). The knob-free body is also
// sent with its theta as an exact hex string, which must journal the
// same bytes as the JSON number.
func TestJournalBytesMatchParent(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	for _, c := range []struct{ body, id string }{
		{"heated-submit.json", "lab--compat-heated"},
		{"plain-submit.json", "plain"},
	} {
		body, err := os.ReadFile(filepath.Join("testdata", c.body))
		if err != nil {
			t.Fatal(err)
		}
		if rr, out := doJSON(t, s, "POST", "/v1/jobs", body); rr.Code != 202 {
			t.Fatalf("%s: status %d: %v", c.body, rr.Code, out)
		}
		requireSameJournal(t, ckpt.JobRecordPath(s.jobDir(c.id)), filepath.Join("testdata", "journal", c.id, ckpt.JobRecordName))
	}

	hexState := t.TempDir()
	h := newTestServer(t, Options{Workers: 1, StateDir: hexState})
	h.nextSeq = 1 // the parent journaled the knob-free job second
	body, err := os.ReadFile(filepath.Join("testdata", "plain-submit.json"))
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.Replace(body, []byte(`"theta":0.7`), []byte(`"theta":"0x1.6666666666666p-01"`), 1)
	if rr, out := doJSON(t, h, "POST", "/v1/jobs", body); rr.Code != 202 {
		t.Fatalf("hex theta: status %d: %v", rr.Code, out)
	}
	requireSameJournal(t, ckpt.JobRecordPath(h.jobDir("plain")), filepath.Join("testdata", "journal", "plain", ckpt.JobRecordName))
}

func requireSameJournal(t *testing.T, gotPath, wantPath string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got = submittedField.ReplaceAll(got, []byte(`"submitted": ""`))
	want = submittedField.ReplaceAll(want, []byte(`"submitted": ""`))
	if !bytes.Equal(got, want) {
		t.Errorf("journal record differs from %s:\n got %s\nwant %s", wantPath, got, want)
	}
}

// TestRestartOnParentJournal: a daemon started on a state directory
// holding the committed records replays both jobs and runs them to
// completion.
func TestRestartOnParentJournal(t *testing.T) {
	state := t.TempDir()
	for _, id := range []string{"lab--compat-heated", "plain"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "journal", id, ckpt.JobRecordName))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(state, "jobs", id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt.JobRecordPath(dir), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Options{StateDir: state})
	for _, id := range []string{"lab--compat-heated", "plain"} {
		if view := waitStatus(t, s, id); view["status"] != "done" || view["resumed"] != true {
			t.Errorf("%s: final view %v, want a resumed done job", id, view)
		}
	}
}
