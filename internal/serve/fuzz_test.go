package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpcgs/internal/ckpt"
)

// FuzzSubmit feeds arbitrary bodies to POST /v1/jobs. The handler must
// never panic and never answer 500, and every 202 must leave a journal
// record that replays through the same path a restart takes into a job
// Validate accepts. Each input gets a fresh daemon whose device pool is
// closed before the request: admission, journaling and the queue
// hand-off run exactly as in service, but an admitted job settles at
// once instead of running, so a fuzzed spec's chain count or step
// budget costs nothing. The target covers the handler and its journal,
// not the samplers.
func FuzzSubmit(f *testing.F) {
	phy := phylipText(f, 5, 40, 1701)
	seeds := [][]byte{
		submitBody(f, "plain", phy, nil),
		submitBody(f, "hex", phy, map[string]any{"theta": "0x1.3333333333333p-02", "tenant": "lab", "priority": 2}),
		submitBody(f, "heated", phy, map[string]any{
			"sampler": "heated", "model": "f84", "chains": 3, "max_temp": 12.5, "swap_every": 2,
			"adapt_ladder": true, "swap_window": 16, "ess_target": 150.5, "rhat_target": "0x1.0cccccccccccdp+00",
		}),
		submitBody(f, "multi", phy, map[string]any{"sampler": "multichain", "chains": 2, "proposals": 0}),
		submitBody(f, "inf", phy, map[string]any{"theta": "+Inf"}),
		submitBody(f, "nan", phy, map[string]any{"sampler": "heated", "max_temp": "NaN"}),
		submitBody(f, "knob", phy, map[string]any{"adapt_ladder": false, "max_temp": 0}),
		submitBody(f, "big", phy, map[string]any{"proposals": 1025}),
		submitBody(f, "wide", phy, map[string]any{"sampler": "multichain", "chains": 1 << 40}),
		submitBody(f, "window", phy, map[string]any{"sampler": "heated", "chains": 4, "swap_window": 4097}),
		append(submitBody(f, "trail", phy, nil), []byte(` {"name": garbage`)...),
		submitBody(f, "two", "2 4\na AAAA\nb CCCC\n", nil),
		[]byte(`{"name": "x", "phylip": "3 2\na AC\nb AG\nc AT\n", "theta": 1}`),
		[]byte(`{"name": "x"`),
		nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Options{StateDir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.pool.Close()

		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for body %q: %s", rr.Code, body, rr.Body)
		}
		if rr.Code != http.StatusAccepted {
			return
		}
		s.mu.Lock()
		ids := append([]string(nil), s.order...)
		s.mu.Unlock()
		if len(ids) != 1 {
			t.Fatalf("202 admitted %d jobs", len(ids))
		}
		rec, err := ckpt.LoadJobRecord(s.jobDir(ids[0]))
		if err != nil {
			t.Fatalf("202 without a loadable journal record: %v", err)
		}
		job, err := specJob(rec.Spec)
		if err != nil {
			t.Fatalf("journaled spec does not replay: %v", err)
		}
		if err := job.Validate(); err != nil {
			t.Fatalf("journaled spec replays into an invalid job: %v", err)
		}
	})
}
