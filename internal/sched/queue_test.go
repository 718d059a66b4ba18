package sched

import (
	"container/heap"
	"errors"
	"strings"
	"testing"
	"time"

	"mpcgs/internal/device"
	"mpcgs/internal/leakcheck"
)

// waitTicket blocks until the ticket settles and returns its result.
func waitTicket(t *testing.T, tk *Ticket) *Result {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("ticket %q did not settle", tk.Name())
	}
	st, _ := tk.State()
	if st.Result == nil {
		t.Fatalf("ticket %q settled without a result", tk.Name())
	}
	return st.Result
}

func TestQueueHeapOrdering(t *testing.T) {
	mk := func(seq int64, priority int, usage int64) *qrunner {
		return &qrunner{seq: seq, priority: priority, usage: usage}
	}
	var h qheap
	// Pushed shuffled: priority dominates, then lower tenant usage, then
	// submission order.
	heap.Push(&h, mk(3, 0, 100))
	heap.Push(&h, mk(1, 0, 100))
	heap.Push(&h, mk(4, 1, 900))
	heap.Push(&h, mk(2, 0, 5))
	heap.Push(&h, mk(5, 1, 900))
	wantSeq := []int64{4, 5, 2, 1, 3}
	for i, want := range wantSeq {
		r := heap.Pop(&h).(*qrunner)
		if r.seq != want {
			t.Fatalf("pop %d: got seq %d, want %d", i, r.seq, want)
		}
	}
}

// TestQueueMatchesStandalone pins the dynamic queue's determinism
// contract: a job submitted to a loaded queue computes exactly what it
// computes alone.
func TestQueueMatchesStandalone(t *testing.T) {
	const workers = 2
	jobs := []Job{
		quickJob("q-gmh", testAlignment(t, 6, 60, 831), "gmh", 841),
		quickJob("q-mh", testAlignment(t, 7, 80, 832), "mh", 842),
		quickJob("q-heated", testAlignment(t, 6, 50, 833), "heated", 843),
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		want[i] = standalone(t, j, workers)
	}

	pool := device.NewPool(workers)
	defer pool.Close()
	q := NewQueue(pool, QueueOptions{Drivers: 2, Quantum: 16})
	defer q.Close()
	tickets := make([]*Ticket, len(jobs))
	for i, j := range jobs {
		tk, err := q.Submit(j, SubmitOptions{Priority: i % 2})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res := waitTicket(t, tk)
		requireIdentical(t, jobs[i].Name, want[i], *res)
	}
	if n := q.Pending(); n != 0 {
		t.Errorf("Pending after all settled = %d, want 0", n)
	}
}

// TestQueueTenantFairness drives one long and one short job from
// different tenants through a single driver: usage-based ordering must
// interleave them so the short job finishes while the long one is still
// running (seq-only ordering would run the first submission to
// completion).
func TestQueueTenantFairness(t *testing.T) {
	long := quickJob("fair-long", testAlignment(t, 6, 60, 851), "mh", 861)
	long.Samples = 4000
	short := quickJob("fair-short", testAlignment(t, 6, 60, 852), "mh", 862)
	short.Samples = 200

	pool := device.NewPool(1)
	defer pool.Close()
	q := NewQueue(pool, QueueOptions{Drivers: 1, Quantum: 16})
	defer q.Close()
	longTk, err := q.Submit(long, SubmitOptions{Tenant: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	shortTk, err := q.Submit(short, SubmitOptions{Tenant: "tenant-b"})
	if err != nil {
		t.Fatal(err)
	}
	waitTicket(t, shortTk)
	if st, _ := longTk.State(); st.Status.Terminal() {
		t.Fatalf("long job settled before the short job despite fairness interleaving (long %v)", st.Status)
	}
	waitTicket(t, longTk)
}

// TestQueuePriorityPreemptsFairness submits a long high-priority job
// after a long low-priority one: from the next quantum boundary on, the
// single driver must run only the high-priority job until it settles.
func TestQueuePriorityPreemptsFairness(t *testing.T) {
	low := quickJob("prio-low", testAlignment(t, 6, 60, 871), "mh", 881)
	low.Samples = 4000
	high := quickJob("prio-high", testAlignment(t, 6, 60, 872), "mh", 882)
	high.Samples = 1500

	pool := device.NewPool(1)
	defer pool.Close()
	q := NewQueue(pool, QueueOptions{Drivers: 1, Quantum: 8})
	defer q.Close()
	lowTk, err := q.Submit(low, SubmitOptions{Tenant: "tenant-a", Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	highTk, err := q.Submit(high, SubmitOptions{Tenant: "tenant-b", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitTicket(t, highTk)
	if st, _ := lowTk.State(); st.Status.Terminal() {
		t.Fatal("low-priority job settled before the high-priority job")
	}
	waitTicket(t, lowTk)
}

// TestQueueDrainResumeBitIdentical is the durability contract at the
// queue level: drain a running job mid-flight, resume it on a fresh
// queue from its checkpoint directory, and the completed trace must be
// bit-identical to the uninterrupted standalone run.
func TestQueueDrainResumeBitIdentical(t *testing.T) {
	job := quickJob("drain-job", testAlignment(t, 6, 60, 891), "gmh", 892)
	job.Samples = 2000
	want := standalone(t, job, 2)
	dir := t.TempDir()

	q := NewQueue(device.NewPool(2), QueueOptions{Drivers: 1, Quantum: 16})
	tk, err := q.Submit(job, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir, Every: 64}})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then drain at a quantum boundary.
	deadline := time.Now().Add(time.Minute)
	for {
		if st, _ := tk.State(); st.Steps > 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	st, _ := tk.State()
	if st.Status.Terminal() {
		t.Skip("job finished before the drain; nothing to resume")
	}
	if st.Status != TicketPaused {
		t.Fatalf("post-drain status %v, want paused", st.Status)
	}

	q2 := NewQueue(device.NewPool(2), QueueOptions{Drivers: 1, Quantum: 16})
	tk2, err := q2.Submit(job, SubmitOptions{
		Checkpoint: CheckpointOptions{Dir: dir, Every: 64},
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitTicket(t, tk2)
	requireIdentical(t, "drain-resume", want, *res)
	if res.Steps != want.Steps {
		t.Errorf("resumed steps %d != standalone %d", res.Steps, want.Steps)
	}
	if err := q2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueResumeRejectsChangedSpec: a resume whose fingerprint does not
// match fails the ticket, not the submission.
func TestQueueResumeRejectsChangedSpec(t *testing.T) {
	job := quickJob("fp-job", testAlignment(t, 6, 60, 893), "gmh", 894)
	dir := t.TempDir()

	q := NewQueue(device.NewPool(2), QueueOptions{Drivers: 1, Quantum: 8})
	tk, err := q.Submit(job, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir, Every: 32}})
	if err != nil {
		t.Fatal(err)
	}
	waitTicket(t, tk)
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}

	changed := job
	changed.Seed += 1000
	q2 := NewQueue(device.NewPool(2), QueueOptions{})
	defer q2.Close()
	tk2, err := q2.Submit(changed, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	res := waitTicket(t, tk2)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "fingerprint mismatch") {
		t.Fatalf("resume with changed spec: err = %v, want fingerprint mismatch", res.Err)
	}
}

// TestQueueResumeRestoresFinishedJob: resubmitting a finished job with
// its checkpoint settles immediately from the recorded result.
func TestQueueResumeRestoresFinishedJob(t *testing.T) {
	job := quickJob("done-job", testAlignment(t, 6, 60, 895), "gmh", 896)
	dir := t.TempDir()

	q := NewQueue(device.NewPool(2), QueueOptions{})
	tk, err := q.Submit(job, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	first := waitTicket(t, tk)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}

	q2 := NewQueue(device.NewPool(2), QueueOptions{})
	defer q2.Close()
	tk2, err := q2.Submit(job, SubmitOptions{Checkpoint: CheckpointOptions{Dir: dir}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	res := waitTicket(t, tk2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Resumed {
		t.Error("restored job not marked Resumed")
	}
	if res.Theta != first.Theta {
		t.Errorf("restored theta %v != original %v", res.Theta, first.Theta)
	}
	if res.Steps != first.Steps {
		t.Errorf("restored steps %d != original %d", res.Steps, first.Steps)
	}
}

func TestQueueSubmitValidation(t *testing.T) {
	q := NewQueue(device.NewPool(1), QueueOptions{Drivers: 1})
	defer q.Close()

	bad := quickJob("bad", testAlignment(t, 6, 40, 897), "gmh", 898)
	bad.InitialTheta = -1
	if _, err := q.Submit(bad, SubmitOptions{}); err == nil {
		t.Fatal("negative theta accepted")
	}
	unknown := quickJob("unk", testAlignment(t, 6, 40, 897), "nope", 898)
	if _, err := q.Submit(unknown, SubmitOptions{}); err == nil {
		t.Fatal("unknown sampler accepted")
	}
	if n := q.Pending(); n != 0 {
		t.Fatalf("rejected submissions left Pending = %d", n)
	}

	// A rejected submission must not wedge the queue.
	ok := quickJob("ok", testAlignment(t, 6, 40, 897), "gmh", 899)
	tk, err := q.Submit(ok, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitTicket(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestQueueRejectsSubmitAfterShutdown(t *testing.T) {
	job := quickJob("late", testAlignment(t, 6, 40, 899), "gmh", 900)

	q := NewQueue(device.NewPool(1), QueueOptions{Drivers: 1})
	if err := q.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(job, SubmitOptions{}); !errors.Is(err, ErrQueueDraining) {
		t.Fatalf("submit after Drain: err = %v, want ErrQueueDraining", err)
	}

	q2 := NewQueue(device.NewPool(1), QueueOptions{Drivers: 1})
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Submit(job, SubmitOptions{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrQueueClosed", err)
	}
}

// TestQueueCloseLeaksNothing shuts a loaded queue down mid-run and
// verifies no goroutines survive.
func TestQueueCloseLeaksNothing(t *testing.T) {
	base := leakcheck.Snapshot()
	jobs := []Job{
		quickJob("leak-a", testAlignment(t, 6, 60, 901), "gmh", 911),
		quickJob("leak-b", testAlignment(t, 6, 60, 902), "mh", 912),
	}
	for i := range jobs {
		jobs[i].Samples = 3000
	}
	q := NewQueue(nil, QueueOptions{Drivers: 2, Quantum: 16})
	for _, j := range jobs {
		if _, err := q.Submit(j, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Verify(t, base)
}

func TestCheckpointKey(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"Pop A":      "pop_a",
		"pop/a":      "pop_a",
		"a.b-c_d":    "a.b-c_d",
		"..":         "job",
		"":           "job",
		"über":       "_ber",
		"x../../etc": "x.._.._etc",
	}
	for in, want := range cases {
		if got := CheckpointKey(in); got != want {
			t.Errorf("CheckpointKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestQueueSnapshotFailureSettlesJob: a snapshot that fails before any
// write — here because the EMRun has nothing left to snapshot — sticks
// like a failed write. A periodic one fails the job when it settles,
// and one taken on a closed pool joins the interruption error.
func TestQueueSnapshotFailureSettlesJob(t *testing.T) {
	pool := device.NewPool(1)
	dev, err := pool.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(pool, QueueOptions{})
	defer q.Close()
	// runner returns a checkpointed runner over a finished EMRun, whose
	// Snapshot fails.
	runner := func(name string) *qrunner {
		job, err := admit(quickJob(name, testAlignment(t, 5, 40, 911), "mh", 912), 0, pool.Workers())
		if err != nil {
			t.Fatal(err)
		}
		em, err := startJob(job, dev, "")
		if err != nil {
			t.Fatal(err)
		}
		for !em.Done() {
			if err := em.Step(); err != nil {
				t.Fatal(err)
			}
		}
		q.mu.Lock()
		q.pending++
		q.mu.Unlock()
		return &qrunner{
			name:   name,
			em:     em,
			cw:     &ckptWriter{dir: t.TempDir(), name: name, fingerprint: "f"},
			ticket: newTicket(name, "t", 0),
		}
	}
	const cause = "snapshot of a finished EM run"

	r := runner("periodic")
	if err := q.snapshot(r); err == nil || !strings.Contains(err.Error(), cause) {
		t.Fatalf("snapshot of a finished run: %v", err)
	}
	q.settleRunner(r, nil)
	if res := waitTicket(t, r.ticket); res.Err == nil || !strings.Contains(res.Err.Error(), cause) {
		t.Errorf("periodic snapshot failure: settled with %v, want it named", res.Err)
	}

	pool.Close()
	r = runner("closed")
	q.runQuantum(r)
	res := waitTicket(t, r.ticket)
	if !errors.Is(res.Err, device.ErrClosed) || !strings.Contains(res.Err.Error(), cause) {
		t.Errorf("interrupted job: settled with %v, want the interruption and the snapshot failure", res.Err)
	}
}
