package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/sched"
)

// maxSubmitBytes bounds one submission body (alignment included).
const maxSubmitBytes = 16 << 20

// maxIDBytes bounds a job id, which names the job's state directory: a
// longer one is not a valid file name on common filesystems.
const maxIDBytes = 255

// retryAfterSeconds is the hint sent with a 429 shed.
const retryAfterSeconds = 5

// historyJSON is one EM iteration in wire form. The floats are rendered
// as strings because an early iteration's mean log-likelihood can be
// -Inf, which JSON numbers cannot carry.
type historyJSON struct {
	ThetaIn        string `json:"theta_in"`
	ThetaOut       string `json:"theta_out"`
	AcceptanceRate string `json:"acceptance_rate"`
	MeanLogLik     string `json:"mean_loglik"`
}

// jobJSON is the job representation every read endpoint returns.
// theta_hex and trace_hex are exact hexadecimal renderings — the fields
// the drain/resume CI gate compares bit-for-bit.
type jobJSON struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Status   string `json:"status"`
	Steps    int    `json:"steps"`
	Resumed  bool   `json:"resumed,omitempty"`
	// Converged marks a job whose final sampling pass ended early at its
	// declared ESS/R-hat targets.
	Converged bool          `json:"converged,omitempty"`
	Error     string        `json:"error,omitempty"`
	Theta     string        `json:"theta,omitempty"`
	ThetaHex  string        `json:"theta_hex,omitempty"`
	TraceHex  []string      `json:"trace_hex,omitempty"`
	History   []historyJSON `json:"history,omitempty"`
}

func formatDec(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func historyToJSON(hist []core.EMIteration) []historyJSON {
	out := make([]historyJSON, len(hist))
	for i, it := range hist {
		out[i] = historyJSON{
			ThetaIn:        formatDec(it.ThetaIn),
			ThetaOut:       formatDec(it.ThetaOut),
			AcceptanceRate: formatDec(it.AcceptanceRate),
			MeanLogLik:     formatDec(it.MeanLogLik),
		}
	}
	return out
}

// jobView renders a job's current state. resumed marks a job replayed
// from the journal (it predates this daemon process). withResult
// additionally includes the full trajectory (the result endpoint's
// payload; status views stay small). A nil ticket is a submission still
// mid-admission: it reports as queued.
func jobView(rec *ckpt.JobRecord, ticket *sched.Ticket, resumed, withResult bool) jobJSON {
	out := jobJSON{
		ID:       rec.ID,
		Name:     rec.Spec.Name,
		Tenant:   rec.Tenant,
		Priority: rec.Priority,
		Status:   string(sched.TicketQueued),
		Resumed:  resumed,
	}
	if ticket == nil {
		return out
	}
	st, _ := ticket.State()
	out.Status = string(st.Status)
	out.Steps = st.Steps
	if st.Result == nil {
		return out
	}
	res := st.Result
	out.Resumed = resumed || res.Resumed
	out.Converged = res.Converged
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	out.Theta = formatDec(res.Theta)
	out.ThetaHex = ckpt.HexFloat(res.Theta)
	out.TraceHex = make([]string, len(res.History))
	for i, it := range res.History {
		out.TraceHex[i] = ckpt.HexFloat(it.ThetaOut)
	}
	if withResult {
		out.History = historyToJSON(res.History)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// routes builds the job API's mux (once, at New).
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

// ServeHTTP routes the job API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"jobs":    n,
		"pending": s.queue.Pending(),
	})
}

// handleSubmit admits one job: validate (400), reserve its identity
// (409 on duplicates), shed when the backlog is full (429), write the
// durable record, enqueue, and only then acknowledge with 202. A
// malformed submission can never 500 — every parse and validation
// failure is reported as a 400 with the reason.
//
// The body is a job spec — the ckpt.JobSpec a batch-manifest entry is,
// with the alignment inline as PHYLIP text — plus the submission's
// scheduling knobs. The spec is journaled exactly as decoded.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ckpt.JobSpec
		Tenant   string `json:"tenant,omitempty"`
		Priority int    `json:"priority,omitempty"`
	}
	if err := ckpt.DecodeStrict(http.MaxBytesReader(w, r.Body, maxSubmitBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid submission: %v", err)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "invalid submission: name is required")
		return
	}
	if req.Phylip == "" {
		writeError(w, http.StatusBadRequest, "invalid submission: phylip alignment text is required")
		return
	}
	job, err := specJob(req.JobSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid submission: %v", err)
		return
	}
	id := jobID(req.Tenant, req.Name)
	if len(id) > maxIDBytes {
		writeError(w, http.StatusBadRequest, "invalid submission: tenant and name make a %d-byte job id; the limit is %d", len(id), maxIDBytes)
		return
	}

	// Reserve the identity under the lock so two racing submissions of
	// the same job cannot both pass the duplicate check.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if _, dup := s.jobs[id]; dup {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %q already exists", id)
		return
	}
	if s.queue.Pending() >= s.opts.maxJobs() {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, "job backlog is full (%d pending); retry later", s.opts.maxJobs())
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	rec := &ckpt.JobRecord{
		ID:        id,
		Seq:       seq,
		Tenant:    req.Tenant,
		Priority:  req.Priority,
		Submitted: time.Now().UTC().Format(time.RFC3339),
		Spec:      req.JobSpec,
	}
	entry := &jobEntry{rec: rec}
	s.jobs[id] = entry
	s.order = append(s.order, id)
	s.mu.Unlock()

	release := func() {
		s.mu.Lock()
		delete(s.jobs, id)
		for i, o := range s.order {
			if o == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}

	// Durable before acknowledged: the record reaches disk before the
	// queue sees the job, so a crash after the 202 always finds it.
	if err := ckpt.SaveJobRecord(s.jobDir(id), rec); err != nil {
		release()
		writeError(w, http.StatusInternalServerError, "persisting job: %v", err)
		return
	}
	ticket, err := s.queue.Submit(job, sched.SubmitOptions{
		Tenant:     req.Tenant,
		Priority:   req.Priority,
		Checkpoint: s.checkpointOptions(id),
	})
	if err != nil {
		release()
		os.RemoveAll(s.jobDir(id))
		writeError(w, http.StatusServiceUnavailable, "enqueuing job: %v", err)
		return
	}
	s.mu.Lock()
	entry.ticket = ticket
	s.mu.Unlock()
	fmt.Fprintf(s.log, "mpcgsd: accepted job %s (seq %d)\n", id, seq)
	writeJSON(w, http.StatusAccepted, jobView(rec, ticket, false, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type pair struct {
		rec     *ckpt.JobRecord
		ticket  *sched.Ticket
		resumed bool
	}
	s.mu.Lock()
	pairs := make([]pair, 0, len(s.order))
	for _, id := range s.order {
		e := s.jobs[id]
		pairs = append(pairs, pair{e.rec, e.ticket, e.resumed})
	}
	s.mu.Unlock()
	out := make([]jobJSON, len(pairs))
	for i, p := range pairs {
		out[i] = jobView(p.rec, p.ticket, p.resumed, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup resolves {id}, writing the 404 itself on a miss. The ticket is
// captured under the lock (it is set after the entry is reserved).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*ckpt.JobRecord, *sched.Ticket, bool, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	entry := s.jobs[id]
	var rec *ckpt.JobRecord
	var ticket *sched.Ticket
	var resumed bool
	if entry != nil {
		rec, ticket, resumed = entry.rec, entry.ticket, entry.resumed
	}
	s.mu.Unlock()
	if entry == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, nil, false, false
	}
	return rec, ticket, resumed, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if rec, ticket, resumed, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, jobView(rec, ticket, resumed, false))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, ticket, resumed, ok := s.lookup(w, r)
	if !ok {
		return
	}
	view := jobView(rec, ticket, resumed, true)
	if !sched.TicketStatus(view.Status).Terminal() {
		writeError(w, http.StatusConflict, "job %q is %s, not finished", view.ID, view.Status)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams the job's state as server-sent events: one
// `data:` line per state change, ending at the terminal state. The
// stream also ends when the client goes away or the server starts
// draining — a drain must not wait out slow watchers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ticket, resumed, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func() jobJSON {
		view := jobView(rec, ticket, resumed, false)
		if payload, err := json.Marshal(view); err == nil {
			fmt.Fprintf(w, "data: %s\n\n", payload)
			flusher.Flush()
		}
		return view
	}
	for {
		var changed <-chan struct{}
		if ticket != nil {
			_, changed = ticket.State()
		}
		view := emit()
		if sched.TicketStatus(view.Status).Terminal() || changed == nil {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// One final snapshot of the paused state, then end: a drain
			// must not wait out slow watchers.
			emit()
			return
		}
	}
}
