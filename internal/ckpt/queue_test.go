package ckpt

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(id string, seq int64) *JobRecord {
	return &JobRecord{
		ID:       id,
		Seq:      seq,
		Tenant:   "lab",
		Priority: 3,
		Spec: JobSpec{
			Name:   id,
			Phylip: "3 4\na AAAA\nb AAAC\nc AACC\n",
			Theta:  Hex(HexFloat(0.01171875)),
			Seed:   42,
		},
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs", "j1")
	want := testRecord("j1", 7)
	want.Spec.MaxTemp = Hex(HexFloat(8))
	if err := SaveJobRecord(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJobRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Version != JobRecordVersion {
		t.Errorf("version %d, want %d", got.Version, JobRecordVersion)
	}
	theta, err := got.Spec.Theta.Float()
	if err != nil {
		t.Fatal(err)
	}
	if theta != 0.01171875 {
		t.Errorf("theta %v, want 0.01171875", theta)
	}
}

func TestHexFloatExactness(t *testing.T) {
	for _, f := range []float64{0, 1, 0.1, 1e-300, math.Pi, math.Inf(1), math.Inf(-1), 0x1.fffffffffffffp+1023} {
		got, err := ParseHexFloat(HexFloat(f))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("HexFloat round trip changed %v to %v", f, got)
		}
	}
}

// TestHexDecodesNumbersAndStrings: a spec float decodes from a JSON
// number or a string to the same canonical literal, zero is "", and
// non-finite strings survive decoding (Validate refuses them later).
func TestHexDecodesNumbersAndStrings(t *testing.T) {
	for in, want := range map[string]Hex{
		`0.3`:                     "0x1.3333333333333p-02",
		`"0x1.3333333333333p-02"`: "0x1.3333333333333p-02",
		`"0x1.33333333333330p-2"`: "0x1.3333333333333p-02",
		`3e-1`:                    "0x1.3333333333333p-02",
		`0`:                       "",
		`-0`:                      "",
		`"0x0p+00"`:               "",
		`null`:                    "",
		`"+Inf"`:                  "+Inf",
		`"NaN"`:                   "NaN",
		`12.5`:                    "0x1.9p+03",
		`"0x1.0cccccccccccdp+00"`: "0x1.0cccccccccccdp+00",
	} {
		var h Hex
		if err := json.Unmarshal([]byte(in), &h); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if h != want {
			t.Errorf("%s decoded to %q, want %q", in, h, want)
		}
	}
	for _, bad := range []string{`"many"`, `""`, `true`, `[1]`, `{}`, `1e999`, `"1e999"`} {
		var h Hex
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("%s: decoded to %q, want an error", bad, h)
		}
	}
}

func TestDecodeStrict(t *testing.T) {
	var spec JobSpec
	if err := DecodeStrict(strings.NewReader(`{"name": "x", "theta": 1} `+"\n"), &spec); err != nil {
		t.Fatalf("well-formed value refused: %v", err)
	}
	for name, in := range map[string]string{
		"unknown field":   `{"name": "x", "bogus": 1}`,
		"second value":    `{"name": "x"} {"name": "y"}`,
		"trailing object": `{"name": "x"}{"jobs": garbage`,
		"trailing junk":   `{"name": "x"} junk`,
		"truncated":       `{"name": "x"`,
		"empty":           ``,
	} {
		if err := DecodeStrict(strings.NewReader(in), &spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadJobRecordRejectsBadRecords(t *testing.T) {
	write := func(t *testing.T, body string) string {
		dir := t.TempDir()
		if err := os.WriteFile(JobRecordPath(dir), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := map[string]struct {
		body    string
		wantErr string
	}{
		"future version": {
			`{"version": 99, "id": "x", "spec": {"name": "x", "phylip": "p", "theta": "0x1p+0"}}`,
			"version 99",
		},
		"missing id": {
			`{"version": 1, "spec": {"name": "x", "phylip": "p", "theta": "0x1p+0"}}`,
			"no id",
		},
		"missing name": {
			`{"version": 1, "id": "x", "spec": {"phylip": "p", "theta": "0x1p+0"}}`,
			"no spec name",
		},
		"missing alignment": {
			`{"version": 1, "id": "x", "spec": {"name": "x", "theta": "0x1p+0"}}`,
			"no alignment",
		},
		"torn json": {
			`{"version": 1, "id"`,
			"unexpected end",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := write(t, tc.body)
			_, err := LoadJobRecord(dir)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestScanJobRecordsOrderAndErrors(t *testing.T) {
	root := filepath.Join(t.TempDir(), "jobs")

	// Missing root: empty queue.
	recs, err := ScanJobRecords(root)
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing root: recs=%v err=%v, want empty/nil", recs, err)
	}

	// Records land lexically shuffled relative to their admission order.
	for _, rec := range []*JobRecord{testRecord("zz", 1), testRecord("aa", 3), testRecord("mm", 2)} {
		if err := SaveJobRecord(filepath.Join(root, rec.ID), rec); err != nil {
			t.Fatal(err)
		}
	}
	// Stray files are ignored; only directories are scanned.
	if err := os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = ScanJobRecords(root)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, r := range recs {
		order = append(order, r.ID)
	}
	if want := []string{"zz", "mm", "aa"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("scan order %v, want %v", order, want)
	}

	// A record whose id does not match its directory is corruption, not
	// something to repair silently.
	if err := SaveJobRecord(filepath.Join(root, "dir-x"), testRecord("other", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanJobRecords(root); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched id: err = %v, want mismatch error", err)
	}
}
