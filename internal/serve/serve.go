// Package serve is the estimation-as-a-service layer: a long-running
// daemon embedding the dynamic job queue (sched.Queue) behind an
// HTTP/JSON API, with a durable on-disk job log so a crashed or drained
// daemon restarts into exactly the state it left.
//
// # Durability contract
//
// Every accepted submission is written to the state directory before it
// is acknowledged:
//
//	<state>/jobs/<id>/job.json    the submission record (ckpt.JobRecord)
//	<state>/jobs/<id>/ckpt/       the job's checkpoint directory (state file + trace sidecar)
//
// On start the server rescans the job log in admission order and
// resubmits every job: finished jobs settle instantly from their
// recorded result, in-flight jobs resume from their last snapshot and —
// because a job's trajectory is a pure function of its spec and seed,
// and snapshots happen only at step boundaries — complete bit-identical
// to a run that was never interrupted. The service-smoke CI job enforces
// this end to end over SIGTERM.
//
// # Admission control
//
// The server bounds its backlog: past Options.MaxJobs pending jobs a
// submission is shed with 429 and a Retry-After hint rather than
// accepted into an unbounded queue. While draining it refuses all
// submissions with 503.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/device"
	"mpcgs/internal/phylip"
	"mpcgs/internal/sched"
)

// Options configures a server.
type Options struct {
	// StateDir is the durable job-log root (required).
	StateDir string
	// Workers sizes the shared device pool; non-positive selects
	// GOMAXPROCS.
	Workers int
	// Drivers and Quantum tune the job queue (see sched.QueueOptions).
	Drivers int
	Quantum int
	// MaxJobs bounds the pending backlog before submissions are shed
	// with 429. Non-positive selects 64.
	MaxJobs int
	// CheckpointEvery is the per-job snapshot cadence in sampler
	// transitions. Non-positive selects 500.
	CheckpointEvery int
	// Log receives one line per lifecycle event; nil discards.
	Log io.Writer
}

func (o Options) maxJobs() int {
	if o.MaxJobs <= 0 {
		return 64
	}
	return o.MaxJobs
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery <= 0 {
		return 500
	}
	return o.CheckpointEvery
}

// jobEntry pairs a durable record with its live ticket. The ticket is
// nil only for the instant between duplicate-reservation and queue
// admission.
type jobEntry struct {
	rec    *ckpt.JobRecord
	ticket *sched.Ticket
	// resumed marks a job replayed from the journal: it predates this
	// process. Jobs submitted over HTTP to this incarnation are not.
	resumed bool
}

// Server is the estimation daemon's engine: the HTTP handler plus the
// queue and durable state behind it. Serve it with net/http; stop it
// with Drain (graceful, snapshots everything) or Close (tests).
type Server struct {
	opts    Options
	log     io.Writer
	pool    *device.Pool
	queue   *sched.Queue
	handler http.Handler

	drainCh   chan struct{}
	drainOnce sync.Once

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	order    []string
	nextSeq  int64
	draining bool
}

// New builds the server: it opens (or creates) the state directory,
// replays the job log, and resubmits every logged job to a fresh queue —
// resuming from checkpoints where they exist. A record that cannot be
// replayed fails New: an acknowledged job that silently vanished would
// break the durability contract.
func New(opts Options) (*Server, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("serve: state directory is required")
	}
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	jobsRoot := filepath.Join(opts.StateDir, "jobs")
	if err := os.MkdirAll(jobsRoot, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	recs, err := ckpt.ScanJobRecords(jobsRoot)
	if err != nil {
		return nil, fmt.Errorf("serve: replaying job log: %w", err)
	}
	pool := device.NewPool(opts.Workers)
	queue := sched.NewQueue(pool, sched.QueueOptions{Drivers: opts.Drivers, Quantum: opts.Quantum})
	s := &Server{
		opts:    opts,
		log:     logw,
		pool:    pool,
		queue:   queue,
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*jobEntry),
	}
	s.handler = s.routes()
	for _, rec := range recs {
		job, err := specJob(rec.Spec)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("serve: job %q: %w", rec.ID, err)
		}
		// A job with no checkpoint yet starts fresh; one whose checkpoint
		// cannot be read fails the submission, and with it New.
		ticket, err := queue.Submit(job, sched.SubmitOptions{
			Tenant:     rec.Tenant,
			Priority:   rec.Priority,
			Checkpoint: s.checkpointOptions(rec.ID),
			Resume:     true,
		})
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("serve: job %q: resubmitting: %w", rec.ID, err)
		}
		s.jobs[rec.ID] = &jobEntry{rec: rec, ticket: ticket, resumed: true}
		s.order = append(s.order, rec.ID)
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
		fmt.Fprintf(logw, "mpcgsd: resumed job %s (seq %d)\n", rec.ID, rec.Seq)
	}
	return s, nil
}

// teardown releases the queue and pool after a failed New.
func (s *Server) teardown() {
	s.queue.Close()
	s.pool.Close()
}

func (s *Server) jobDir(id string) string { return filepath.Join(s.opts.StateDir, "jobs", id) }

func (s *Server) checkpointOptions(id string) sched.CheckpointOptions {
	return sched.CheckpointOptions{Dir: filepath.Join(s.jobDir(id), "ckpt"), Every: s.opts.checkpointEvery()}
}

// jobID derives a submission's durable identity from its tenant and
// name, via the same sanitization the batch scheduler keys checkpoint
// state with.
func jobID(tenant, name string) string {
	if tenant == "" {
		return sched.CheckpointKey(name)
	}
	return sched.CheckpointKey(tenant) + "--" + sched.CheckpointKey(name)
}

// Drain is the SIGTERM path: stop accepting, unblock progress streams,
// stop the drivers at their next quantum boundary, snapshot every live
// job to disk, and release the device pool. After a clean Drain (nil
// error) a New on the same state directory continues every job
// bit-identically.
func (s *Server) Drain() error {
	s.beginShutdown()
	err := s.queue.Drain()
	s.pool.Close()
	return err
}

// Close shuts down without the drain snapshots (periodic checkpoints
// stay as they were). Intended for tests.
func (s *Server) Close() error {
	s.beginShutdown()
	err := s.queue.Close()
	s.pool.Close()
	return err
}

func (s *Server) beginShutdown() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// specJob parses a spec's inline PHYLIP text and maps the spec onto its
// scheduler job: the one path from a submission or a journaled record
// to a job.
func specJob(spec ckpt.JobSpec) (sched.Job, error) {
	aln, err := phylip.Read(strings.NewReader(spec.Phylip))
	if err != nil {
		return sched.Job{}, fmt.Errorf("alignment: %w", err)
	}
	return sched.JobFromSpec(spec, aln)
}

var _ http.Handler = (*Server)(nil)
