package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/core"
	"mpcgs/internal/device"
)

// Queue is the scheduler: a long-lived set of driver goroutines that
// admits jobs one at a time, also while earlier submissions are already
// running, so a serving process need not know its whole batch up front
// (RunBatch is a client that submits a known batch and waits). Each
// driver pops the most urgent job, steps it for a bounded quantum of
// sampler transitions, and requeues it. The ready queue is a priority
// heap ordered by (priority, tenant usage, submission order), so late
// arrivals from a starved tenant preempt a busy tenant's backlog at the
// next quantum boundary.
//
// # Preemption
//
// Eviction is cooperative and happens only at quantum boundaries: a
// higher-priority submission never interrupts a quantum in flight, it
// just outranks the running job when that job's driver requeues it.
// Since snapshots are likewise taken only between quanta, scheduling
// order can never affect what a job computes — only when.
//
// # Determinism
//
// A job's trajectory is a pure function of its spec and seed: per-job
// PRNG streams live inside the job's EMRun and the heap only decides
// stepping order. The queue-level equivalence tests pin submitted jobs
// against RunStandalone bit-for-bit.
//
// # Durability
//
// Each submission may carry its own CheckpointOptions (one directory per
// job, RunBatch's jobs included): the queue then snapshots the job
// every CheckpointOptions.Every transitions and on Drain, and a
// later submission of the same spec with SubmitOptions.Resume continues
// it bit-identically. Drain is the SIGTERM path: stop the drivers at
// their next quantum boundary, snapshot every live job, and leave the
// state on disk for the next process.
type Queue struct {
	pool    *device.Pool
	ownPool bool
	quantum int

	mu      sync.Mutex
	cond    *sync.Cond
	ready   qheap
	parked  []*qrunner // live runners stranded by Drain/Close, awaiting snapshot
	usage   map[string]int64
	tenants map[string]*device.Device
	pending int
	state   qstate
	nextSeq int64
	wg      sync.WaitGroup
}

type qstate int

const (
	qRunning qstate = iota
	qDraining
	qClosed
)

var (
	// ErrQueueDraining rejects submissions to a queue that is shutting
	// down gracefully (it still finishes snapshotting its live jobs).
	ErrQueueDraining = errors.New("sched: queue is draining")
	// ErrQueueClosed rejects submissions to a queue that is shut down.
	ErrQueueClosed = errors.New("sched: queue is closed")
)

// QueueOptions tunes a dynamic queue.
type QueueOptions struct {
	// Drivers is the number of goroutines stepping jobs concurrently.
	// Non-positive selects the pool's worker count.
	Drivers int
	// Quantum is how many sampler transitions a driver performs on one
	// job before requeuing it. Non-positive selects 64.
	Quantum int
}

// SubmitOptions carries the per-submission scheduling and durability
// knobs that are not part of the job spec itself (they never enter the
// fingerprint: rescheduling a job at a different priority must still
// resume its checkpoint).
type SubmitOptions struct {
	// Tenant groups jobs for fairness accounting and device attribution;
	// empty uses the job name (every job its own tenant). All of a
	// tenant's jobs share one tenant view of the device pool.
	Tenant string
	// Priority orders the ready heap; higher runs first. Jobs of equal
	// priority interleave by tenant usage, then submission order.
	Priority int
	// Checkpoint persists this job's snapshots into its own directory.
	Checkpoint CheckpointOptions
	// Resume restores the job from the state file in Checkpoint.Dir. A
	// finished record settles the ticket immediately; a paused record
	// continues bit-identically; a fingerprint mismatch fails the
	// ticket. A missing state file starts the job fresh; a state file
	// that cannot be read fails the submission.
	Resume bool
}

// TicketStatus is the lifecycle state of a submitted job.
type TicketStatus string

const (
	TicketQueued  TicketStatus = "queued"
	TicketRunning TicketStatus = "running"
	TicketPaused  TicketStatus = "paused"
	TicketDone    TicketStatus = "done"
	TicketFailed  TicketStatus = "failed"
)

// Terminal reports whether the status is final.
func (s TicketStatus) Terminal() bool { return s == TicketDone || s == TicketFailed }

// TicketState is a point-in-time observation of a ticket.
type TicketState struct {
	Status TicketStatus
	// Steps counts sampler transitions driven so far (including before a
	// resume).
	Steps int
	// Result is set once Status is terminal.
	Result *Result
}

// Ticket tracks one submitted job through the queue.
type Ticket struct {
	name     string
	tenant   string
	priority int

	mu      sync.Mutex
	status  TicketStatus
	steps   int
	res     *Result
	changed chan struct{}
	done    chan struct{}
}

func newTicket(name, tenant string, priority int) *Ticket {
	return &Ticket{
		name:     name,
		tenant:   tenant,
		priority: priority,
		status:   TicketQueued,
		changed:  make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Name returns the job's (defaults-applied) name.
func (t *Ticket) Name() string { return t.name }

// Tenant returns the fairness-accounting tenant.
func (t *Ticket) Tenant() string { return t.tenant }

// Priority returns the submission priority.
func (t *Ticket) Priority() int { return t.priority }

// State returns the current state and a channel that is closed on the
// next state change, for change-driven polling (progress streams select
// on it instead of busy-polling).
func (t *Ticket) State() (TicketState, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TicketState{Status: t.status, Steps: t.steps, Result: t.res}
	return st, t.changed
}

// Done is closed when the ticket reaches a terminal state.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// update moves a live ticket to a non-terminal status. Late scheduler
// updates racing a settle are dropped: terminal wins.
func (t *Ticket) update(status TicketStatus, steps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status.Terminal() {
		return
	}
	if t.status == status && t.steps == steps {
		return
	}
	t.status = status
	t.steps = steps
	close(t.changed)
	t.changed = make(chan struct{})
}

// settle finalizes the ticket with its result.
func (t *Ticket) settle(res *Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status.Terminal() {
		return
	}
	if res.Err != nil {
		t.status = TicketFailed
	} else {
		t.status = TicketDone
	}
	t.steps = res.Steps
	t.res = res
	close(t.changed)
	t.changed = make(chan struct{})
	close(t.done)
}

// qrunner is one live job owned by the queue.
type qrunner struct {
	seq      int64
	name     string
	tenant   string
	priority int
	// usage snapshots the tenant's cumulative step count at (re)queue
	// time; the heap reads it without locking the queue's usage map.
	usage     int64
	em        *core.EMRun
	steps     int
	sinceSnap int
	snapEvery int
	cw        *ckptWriter // nil without checkpointing
	ticket    *Ticket
	busy      time.Duration
}

// qheap orders runners by priority (higher first), then tenant usage
// (less-served first — the fairness axis), then submission order.
type qheap []*qrunner

func (h qheap) Len() int { return len(h) }
func (h qheap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	if h[i].usage != h[j].usage {
		return h[i].usage < h[j].usage
	}
	return h[i].seq < h[j].seq
}
func (h qheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *qheap) Push(x any)   { *h = append(*h, x.(*qrunner)) }
func (h *qheap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// NewQueue starts a dynamic queue over the shared pool. The pool is the
// caller's (shared with any other load); a nil pool spawns a private one
// that Close/Drain tears down.
func NewQueue(pool *device.Pool, opts QueueOptions) *Queue {
	q := &Queue{quantum: opts.Quantum}
	if pool == nil {
		pool = device.NewPool(0)
		q.ownPool = true
	}
	q.pool = pool
	if q.quantum <= 0 {
		q.quantum = 64
	}
	drivers := opts.Drivers
	if drivers <= 0 {
		drivers = pool.Workers()
	}
	q.cond = sync.NewCond(&q.mu)
	q.usage = make(map[string]int64)
	q.tenants = make(map[string]*device.Device)
	q.wg.Add(drivers)
	for d := 0; d < drivers; d++ {
		go q.drive()
	}
	return q
}

// Pending counts submitted jobs that have not yet settled (queued,
// running, or awaiting their terminal update) — the admission-control
// depth a serving layer bounds.
func (q *Queue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// Submit admits one job. The spec is validated synchronously (an invalid
// spec returns an error with no ticket); everything after admission is
// reported through the returned Ticket. With opts.Checkpoint set, the
// job's checkpoint directory is read (when resuming) or prepared for a
// fresh start before Submit returns: a checkpoint that cannot be read or
// written is refused here, with no ticket, so a caller that gets a
// ticket knows a restart will find the job's state.
func (q *Queue) Submit(job Job, opts SubmitOptions) (*Ticket, error) {
	if opts.Resume && !opts.Checkpoint.enabled() {
		return nil, errors.New("sched: resuming needs the checkpoint directory to resume from")
	}
	q.mu.Lock()
	switch q.state {
	case qDraining:
		q.mu.Unlock()
		return nil, ErrQueueDraining
	case qClosed:
		q.mu.Unlock()
		return nil, ErrQueueClosed
	}
	q.pending++
	seq := q.nextSeq
	q.nextSeq++
	q.mu.Unlock()

	// refuse releases the reserved pending slot of a submission that
	// gets no ticket.
	refuse := func(err error) (*Ticket, error) {
		q.mu.Lock()
		q.pending--
		q.mu.Unlock()
		return nil, err
	}
	job, err := admit(job, int(seq), q.pool.Workers())
	if err != nil {
		return refuse(err)
	}
	dir := opts.Checkpoint.Dir
	var prior *ckpt.JobState
	if opts.Resume {
		// A missing state file means the job never got as far as a
		// snapshot: it starts fresh. Any other failure to read it is
		// the caller's to see, never a silent restart.
		prior, err = ckpt.Load(dir)
		if errors.Is(err, fs.ErrNotExist) {
			prior, err = nil, nil
		}
		if err != nil {
			return refuse(fmt.Errorf("sched: job %q: %w", job.Name, err))
		}
	}
	if prior == nil && dir != "" {
		if err := clearJobDir(dir, job.Name); err != nil {
			return refuse(fmt.Errorf("sched: job %q: %w", job.Name, err))
		}
	}
	tenant := opts.Tenant
	if tenant == "" {
		tenant = job.Name
	}
	ticket := newTicket(job.Name, tenant, opts.Priority)

	// settle ends an admission whose outcome is already known. Submit
	// itself succeeded — the job is what failed or finished — so a
	// restarted daemon surfaces such outcomes on the job, not as a
	// refusal to start.
	settle := func(res *Result) (*Ticket, error) {
		q.finish(ticket, res)
		return ticket, nil
	}
	var cw *ckptWriter
	if dir != "" {
		cw = &ckptWriter{dir: dir, name: job.Name, fingerprint: Fingerprint(job)}
	}
	fail := func(err error) (*Ticket, error) {
		if werr := cw.save(failedState(err, 0)); werr != nil {
			return refuse(werr)
		}
		return settle(&Result{Name: job.Name, Err: err})
	}

	if prior != nil {
		switch {
		case prior.Fingerprint != cw.fingerprint:
			return settle(&Result{Name: job.Name, Err: fmt.Errorf("sched: job %q: checkpoint fingerprint mismatch: the job spec or its data changed since the snapshot (proposal/chain counts default to the pool's worker count); resubmit without resuming or restore the original spec", job.Name)})
		case prior.Status == ckpt.StatusDone:
			res := &Result{Name: job.Name}
			if err := restoreDone(prior, res); err != nil {
				res.Err = fmt.Errorf("sched: job %q: %w", job.Name, err)
			}
			return settle(res)
		case prior.Status == ckpt.StatusFailed:
			return settle(&Result{
				Name:    job.Name,
				Steps:   prior.Steps,
				Resumed: true,
				Err:     fmt.Errorf("sched: job %q failed before the resume: %s", job.Name, prior.Error),
			})
		}
	}

	dev, err := q.tenantDevice(tenant)
	if err != nil {
		return fail(err)
	}
	em, err := startJob(job, dev, TracePath(dir, job.Name))
	if err != nil {
		return fail(fmt.Errorf("sched: job %q: %w", job.Name, err))
	}
	r := &qrunner{
		seq:       seq,
		name:      job.Name,
		tenant:    tenant,
		priority:  opts.Priority,
		em:        em,
		snapEvery: opts.Checkpoint.every(),
		cw:        cw,
		ticket:    ticket,
	}
	if prior != nil {
		snap, err := ckpt.DecodeEM(prior.EM)
		if err == nil {
			err = em.Restore(snap)
		}
		if err != nil {
			return fail(fmt.Errorf("sched: job %q: restoring checkpoint: %w", job.Name, err))
		}
		r.steps = prior.Steps
		ticket.update(TicketQueued, r.steps)
	}

	q.mu.Lock()
	if q.state != qRunning {
		// Drain raced the admission — and may already be past its
		// collection pass, so parking the runner could strand it.
		// Handle it here instead: snapshot (on a graceful drain) and
		// report the ticket paused. The job never stepped beyond its
		// resume point, so the snapshot is its admission state.
		draining := q.state == qDraining
		q.mu.Unlock()
		if draining {
			if err := q.snapshot(r); err != nil {
				return refuse(fmt.Errorf("sched: draining job %q: %w", r.name, err))
			}
		}
		ticket.update(TicketPaused, r.steps)
		return ticket, nil
	}
	r.usage = q.usage[tenant]
	heap.Push(&q.ready, r)
	q.cond.Signal()
	q.mu.Unlock()
	return ticket, nil
}

// tenantDevice returns the tenant's shared device view, creating it on
// first use.
func (q *Queue) tenantDevice(tenant string) (*device.Device, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if dev, ok := q.tenants[tenant]; ok {
		return dev, nil
	}
	dev, err := q.pool.Tenant(tenant)
	if err != nil {
		return nil, err
	}
	q.tenants[tenant] = dev
	return dev, nil
}

// finish settles a ticket and releases its pending slot.
func (q *Queue) finish(ticket *Ticket, res *Result) {
	ticket.settle(res)
	q.mu.Lock()
	q.pending--
	q.mu.Unlock()
}

// drive is one driver goroutine: pop the most urgent runner, step it for
// one quantum, requeue or settle it.
func (q *Queue) drive() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for q.state == qRunning && q.ready.Len() == 0 {
			q.cond.Wait()
		}
		if q.state != qRunning {
			q.mu.Unlock()
			return
		}
		r := heap.Pop(&q.ready).(*qrunner)
		q.mu.Unlock()
		q.runQuantum(r)
	}
}

// runQuantum advances one runner by up to one quantum of transitions and
// routes it: settled, requeued, or parked for a drain snapshot.
func (q *Queue) runQuantum(r *qrunner) {
	if q.pool.Closed() {
		err := fmt.Errorf("sched: job %q interrupted: %w", r.name, device.ErrClosed)
		q.settleRunner(r, errors.Join(err, q.snapshot(r)))
		return
	}
	r.ticket.update(TicketRunning, r.steps)
	start := time.Now()
	var stepErr error
	n := 0
	for s := 0; s < q.quantum && !r.em.Done(); s++ {
		if stepErr = r.em.Step(); stepErr != nil {
			break
		}
		r.steps++
		r.sinceSnap++
		n++
	}
	r.busy += time.Since(start)
	switch {
	case stepErr != nil:
		if werr := r.cw.save(failedState(stepErr, r.steps)); werr != nil {
			stepErr = errors.Join(stepErr, werr)
		}
		q.settleRunner(r, stepErr)
	case r.em.Done():
		q.settleRunner(r, nil)
	default:
		if r.cw != nil && r.sinceSnap >= r.snapEvery {
			// A failure sticks in r.cw and settles the job with it.
			q.snapshot(r)
		}
		// Status before requeue: once the runner is back on the heap
		// another driver may pop it and set Running, and that later
		// update must not be clobbered by ours.
		r.ticket.update(TicketQueued, r.steps)
		q.mu.Lock()
		q.usage[r.tenant] += int64(n)
		if q.state == qRunning {
			r.usage = q.usage[r.tenant]
			heap.Push(&q.ready, r)
			q.cond.Signal()
		} else {
			q.parked = append(q.parked, r)
		}
		q.mu.Unlock()
	}
}

// settleRunner finalizes a runner's ticket (and its checkpoint, when the
// job carries one).
func (q *Queue) settleRunner(r *qrunner, err error) {
	res := &Result{Name: r.name, Steps: r.steps, Busy: r.busy, Err: err}
	if err == nil {
		res.adopt(r.em)
	}
	if res.Err == nil {
		res.Err = r.cw.save(doneState(res))
	}
	q.finish(r.ticket, res)
}

// snapshot persists a still-running job's state; the calling goroutine
// owns the runner, so the EMRun is quiescent at a step boundary.
func (q *Queue) snapshot(r *qrunner) error {
	if r.cw == nil {
		return nil
	}
	snap, err := r.em.Snapshot()
	if err != nil {
		return r.cw.fail(err)
	}
	wire, err := ckpt.EncodeEM(snap)
	if err != nil {
		return r.cw.fail(err)
	}
	r.sinceSnap = 0
	return r.cw.save(ckpt.JobState{Status: ckpt.StatusPaused, Steps: r.steps, EM: wire})
}

// Drain shuts the queue down gracefully: new submissions are refused,
// drivers stop at their next quantum boundary, and every live job is
// snapshotted to its checkpoint directory and marked paused. The first
// snapshot or checkpoint-write failure is returned — a drain whose state
// did not all reach disk is not a clean drain. A queue built over a
// private pool closes it.
func (q *Queue) Drain() error {
	return q.shutdown(qDraining, true)
}

// Close shuts the queue down without snapshotting: live jobs are marked
// paused in memory but their checkpoints are left at their last periodic
// snapshot. Intended for tests and non-durable callers.
func (q *Queue) Close() error {
	return q.shutdown(qClosed, false)
}

func (q *Queue) shutdown(to qstate, snapshot bool) error {
	q.mu.Lock()
	if q.state == qRunning {
		q.state = to
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	q.wg.Wait()

	// All drivers have exited; every live runner is on the heap or
	// parked, quiescent at a step boundary.
	q.mu.Lock()
	live := append([]*qrunner(nil), q.ready...)
	live = append(live, q.parked...)
	q.ready, q.parked = nil, nil
	q.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })

	var firstErr error
	for _, r := range live {
		if snapshot {
			if err := q.snapshot(r); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("sched: draining job %q: %w", r.name, err)
			}
		}
		r.ticket.update(TicketPaused, r.steps)
	}
	if q.ownPool {
		q.pool.Close()
	}
	return firstErr
}
