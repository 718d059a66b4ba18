package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/leakcheck"
	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
)

// phylipText simulates a small dataset and renders it as the PHYLIP text
// a client submits.
func phylipText(t testing.TB, nSeq, seqLen int, seed uint64) string {
	t.Helper()
	aln, _, err := seqgen.SimulateData(nSeq, seqLen, 1.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := phylip.Write(&sb, aln); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// newTestServer builds a server on a fresh state dir and registers
// cleanup. Tests that drain or restart explicitly manage their own.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// submitBody is a minimal well-formed submission.
func submitBody(t testing.TB, name, phy string, extra map[string]any) []byte {
	t.Helper()
	body := map[string]any{
		"name":          name,
		"phylip":        phy,
		"theta":         1.0,
		"proposals":     2,
		"burnin":        20,
		"samples":       100,
		"em_iterations": 1,
		"seed":          7,
	}
	for k, v := range extra {
		body[k] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func doJSON(t *testing.T, h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var out map[string]any
	if rr.Body.Len() > 0 {
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: non-JSON response (status %d): %q", method, path, rr.Code, rr.Body.String())
		}
	}
	return rr, out
}

// waitStatus polls a job until it reaches a terminal status and returns
// its final status view.
func waitStatus(t *testing.T, s *Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rr, view := doJSON(t, s, "GET", "/v1/jobs/"+id, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %v", id, rr.Code, view)
		}
		if st := view["status"]; st == "done" || st == "failed" {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish (last view %v)", id, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitMalformedNever500 pins the API's failure mode for bad input:
// every malformed submission is a 400 with a JSON error, never a 500.
func TestSubmitMalformedNever500(t *testing.T) {
	s := newTestServer(t, Options{})
	phy := phylipText(t, 5, 40, 301)
	cases := map[string][]byte{
		"empty body":         nil,
		"truncated json":     []byte(`{"name": "x"`),
		"not json":           []byte("name=x"),
		"unknown field":      submitBody(t, "x", phy, map[string]any{"bogus": 1}),
		"missing name":       submitBody(t, "", phy, nil),
		"missing phylip":     submitBody(t, "x", "", nil),
		"garbage phylip":     submitBody(t, "x", "not a phylip file", nil),
		"two sequences":      submitBody(t, "x", "2 4\na AAAA\nb CCCC\n", nil),
		"zero theta":         submitBody(t, "x", phy, map[string]any{"theta": 0}),
		"negative theta":     submitBody(t, "x", phy, map[string]any{"theta": -2}),
		"unknown sampler":    submitBody(t, "x", phy, map[string]any{"sampler": "nuts"}),
		"unknown model":      submitBody(t, "x", phy, map[string]any{"model": "gtr"}),
		"negative burnin":    submitBody(t, "x", phy, map[string]any{"burnin": -1}),
		"tempering on gmh":   submitBody(t, "x", phy, map[string]any{"max_temp": 4}),
		"max_temp below 1":   submitBody(t, "x", phy, map[string]any{"sampler": "heated", "max_temp": 0.5}),
		"string where int":   submitBody(t, "x", phy, map[string]any{"samples": "many"}),
		"proposals over cap": submitBody(t, "x", phy, map[string]any{"proposals": 1 << 40}),
		"chains over cap":    submitBody(t, "x", phy, map[string]any{"sampler": "heated", "chains": 129}),
		"window over cap":    submitBody(t, "x", phy, map[string]any{"sampler": "heated", "swap_window": 1 << 30}),
		"infinite theta":     submitBody(t, "x", phy, map[string]any{"theta": "+Inf"}),
		"NaN theta":          submitBody(t, "x", phy, map[string]any{"theta": "NaN"}),
		"NaN max_temp":       submitBody(t, "x", phy, map[string]any{"sampler": "heated", "max_temp": "NaN"}),
		"NaN ess_target":     submitBody(t, "x", phy, map[string]any{"ess_target": "NaN"}),
		"garbage float":      submitBody(t, "x", phy, map[string]any{"theta": "one"}),
		"trailing data":      append(submitBody(t, "x", phy, nil), []byte(` {"name": garbage`)...),
		"second value":       append(submitBody(t, "x", phy, nil), submitBody(t, "y", phy, nil)...),
		"name too long":      submitBody(t, strings.Repeat("n", 300), phy, nil),
		"negative priority":  nil, // placeholder replaced below
	}
	delete(cases, "negative priority") // priorities may be negative; not an error
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			rr, out := doJSON(t, s, "POST", "/v1/jobs", body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %v)", rr.Code, out)
			}
			if out["error"] == "" {
				t.Fatal("400 without an error message")
			}
		})
	}
	// Nothing was admitted, nothing journaled.
	rr, out := doJSON(t, s, "GET", "/v1/jobs", nil)
	if rr.Code != http.StatusOK || len(out["jobs"].([]any)) != 0 {
		t.Fatalf("after rejections: %d %v, want empty list", rr.Code, out)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/ghost", "/v1/jobs/ghost/result", "/v1/jobs/ghost/events"} {
		rr, out := doJSON(t, s, "GET", path, nil)
		if rr.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (%v)", path, rr.Code, out)
		}
	}
}

func TestSubmitPollFetchLifecycle(t *testing.T) {
	s := newTestServer(t, Options{})
	phy := phylipText(t, 6, 60, 302)
	rr, view := doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "lineage-a", phy, map[string]any{"tenant": "lab"}))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %v", rr.Code, view)
	}
	id := view["id"].(string)
	if id != "lab--lineage-a" {
		t.Fatalf("id %q, want lab--lineage-a", id)
	}

	// Duplicate submission: 409.
	rr, _ = doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "lineage-a", phy, map[string]any{"tenant": "lab"}))
	if rr.Code != http.StatusConflict {
		t.Fatalf("duplicate submit: status %d, want 409", rr.Code)
	}

	final := waitStatus(t, s, id)
	if final["status"] != "done" {
		t.Fatalf("final status %v (error %v)", final["status"], final["error"])
	}
	if final["theta_hex"] == nil || final["theta"] == nil {
		t.Fatalf("final view missing theta: %v", final)
	}

	rr, res := doJSON(t, s, "GET", "/v1/jobs/"+id+"/result", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("result: status %d: %v", rr.Code, res)
	}
	if len(res["history"].([]any)) == 0 || len(res["trace_hex"].([]any)) == 0 {
		t.Fatalf("result missing trajectory: %v", res)
	}
}

func TestResultBeforeDoneIs409(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	phy := phylipText(t, 6, 60, 303)
	long := submitBody(t, "slow", phy, map[string]any{"samples": 8000, "em_iterations": 2})
	rr, view := doJSON(t, s, "POST", "/v1/jobs", long)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", rr.Code, view)
	}
	rr, out := doJSON(t, s, "GET", "/v1/jobs/slow/result", nil)
	if rr.Code != http.StatusConflict {
		t.Fatalf("early result fetch: status %d, want 409 (%v)", rr.Code, out)
	}
}

// TestQueueFullSheds429 bounds the backlog at one job and verifies the
// second submission is shed with Retry-After rather than queued.
func TestQueueFullSheds429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	phy := phylipText(t, 6, 60, 304)
	long := submitBody(t, "occupant", phy, map[string]any{"samples": 8000, "em_iterations": 2})
	if rr, view := doJSON(t, s, "POST", "/v1/jobs", long); rr.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", rr.Code, view)
	}
	rr, out := doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "shed-me", phy, nil))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429 (%v)", rr.Code, out)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The shed job left no durable trace: a restart must not resurrect it.
	if rr, _ := doJSON(t, s, "GET", "/v1/jobs/shed-me", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("shed job visible: status %d, want 404", rr.Code)
	}
}

func TestDrainingRefusesSubmissions(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	phy := phylipText(t, 5, 40, 305)
	rr, out := doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "late", phy, nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503 (%v)", rr.Code, out)
	}
}

// TestEventsStreamEndsAtTerminal consumes the SSE stream of a short job
// over a real HTTP connection and verifies it ends at the terminal
// event.
func TestEventsStreamEndsAtTerminal(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	phy := phylipText(t, 6, 60, 306)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader(submitBody(t, "streamed", phy, nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/streamed/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var last map[string]any
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("event %d: %v", events, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no events received")
	}
	if last["status"] != "done" {
		t.Fatalf("stream ended at %v, want done (error %v)", last["status"], last["error"])
	}
}

// TestShutdownLeaksNothing runs a loaded server through submit and
// drain and verifies no goroutines survive — including the SSE stream
// of an in-flight job, which the drain must unblock.
func TestShutdownLeaksNothing(t *testing.T) {
	base := leakcheck.Snapshot()
	func() {
		s := newTestServer(t, Options{Workers: 2})
		ts := httptest.NewServer(s)
		defer ts.Close()
		phy := phylipText(t, 6, 60, 307)
		long := submitBody(t, "leaky", phy, map[string]any{"samples": 8000, "em_iterations": 2})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(long))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Open an SSE stream that the drain must terminate.
		stream, err := http.Get(ts.URL + "/v1/jobs/leaky/events")
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Body.Close()
		buf := make([]byte, 64)
		if _, err := stream.Body.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	leakcheck.Verify(t, base)
}

// collectTraces fetches every job's exact trace from a server.
func collectTraces(t *testing.T, s *Server, ids []string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range ids {
		view := waitStatus(t, s, id)
		if view["status"] != "done" {
			t.Fatalf("job %s: %v (error %v)", id, view["status"], view["error"])
		}
		trace := []string{view["theta_hex"].(string)}
		for _, h := range view["trace_hex"].([]any) {
			trace = append(trace, h.(string))
		}
		out[id] = trace
	}
	return out
}

// TestDrainRestartBitIdentical is the durability contract in-process:
// drain a server mid-run, rebuild it on the same state directory, and
// every job's final exact trace must equal the uninterrupted run's.
func TestDrainRestartBitIdentical(t *testing.T) {
	specs := []struct {
		name string
		phy  string
		seed uint64
	}{
		{"pop-a", phylipText(t, 6, 60, 311), 321},
		{"pop-b", phylipText(t, 6, 50, 312), 322},
	}
	submit := func(s *Server, name, phy string, seed uint64) {
		t.Helper()
		body := submitBody(t, name, phy, map[string]any{
			"samples": 2500, "em_iterations": 2, "seed": seed, "tenant": "lab",
		})
		rr, view := doJSON(t, s, "POST", "/v1/jobs", body)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", name, rr.Code, view)
		}
	}
	ids := []string{"lab--pop-a", "lab--pop-b"}

	// Reference: uninterrupted run.
	ref := newTestServer(t, Options{Workers: 2, Quantum: 16, CheckpointEvery: 64})
	for _, sp := range specs {
		submit(ref, sp.name, sp.phy, sp.seed)
	}
	want := collectTraces(t, ref, ids)

	// Interrupted run: drain mid-flight, restart on the same state dir.
	state := t.TempDir()
	s1, err := New(Options{StateDir: state, Workers: 2, Quantum: 16, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		submit(s1, sp.name, sp.phy, sp.seed)
	}
	// Give the jobs a moment to make progress, then drain.
	deadline := time.Now().Add(time.Minute)
	for {
		rr, view := doJSON(t, s1, "GET", "/v1/jobs/"+ids[0], nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%d %v", rr.Code, view)
		}
		if steps, _ := view["steps"].(float64); steps > 200 {
			break
		}
		if view["status"] == "done" || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{StateDir: state, Workers: 2, Quantum: 16, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collectTraces(t, s2, ids)
	for _, id := range ids {
		if strings.Join(got[id], ",") != strings.Join(want[id], ",") {
			t.Errorf("job %s: resumed trace differs from uninterrupted run:\n got %v\nwant %v",
				id, got[id], want[id])
		}
	}
	// And the resumed results survive yet another restart untouched.
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Options{StateDir: state, Workers: 2, Quantum: 16, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	again := collectTraces(t, s3, ids)
	for _, id := range ids {
		if strings.Join(again[id], ",") != strings.Join(want[id], ",") {
			t.Errorf("job %s: restored trace differs after second restart", id)
		}
	}
	for _, id := range ids {
		rr, view := doJSON(t, s3, "GET", "/v1/jobs/"+id, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%d %v", rr.Code, view)
		}
		if view["resumed"] != true {
			t.Errorf("job %s not marked resumed after restart: %v", id, view)
		}
	}
}

func TestNewRejectsCorruptJobLog(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{StateDir: dir})
	phy := phylipText(t, 5, 40, 308)
	if rr, view := doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "keeper", phy, nil)); rr.Code != http.StatusAccepted {
		t.Fatalf("%d %v", rr.Code, view)
	}
	waitStatus(t, s, "keeper")
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record: a restart must fail loudly, not drop the job.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "keeper", "job.json"), []byte(`{"version": 1`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{StateDir: dir}); err == nil {
		t.Fatal("New accepted a corrupt job record")
	}
}

// TestNewRejectsCorruptCheckpoint: a job whose checkpoint cannot be read
// stops the daemon from starting instead of silently restarting the job
// from scratch.
func TestNewRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{StateDir: dir})
	phy := phylipText(t, 5, 40, 309)
	if rr, view := doJSON(t, s, "POST", "/v1/jobs", submitBody(t, "keeper", phy, nil)); rr.Code != http.StatusAccepted {
		t.Fatalf("%d %v", rr.Code, view)
	}
	waitStatus(t, s, "keeper")
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	state := ckpt.Path(filepath.Join(dir, "jobs", "keeper", "ckpt"))
	if err := os.WriteFile(state, []byte(`{"version": 4, "name"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{StateDir: dir}); err == nil || !strings.Contains(err.Error(), state) {
		t.Fatalf("New over a corrupt checkpoint: %v", err)
	}
}
