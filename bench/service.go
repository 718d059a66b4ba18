package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpcgs/internal/ckpt"
	"mpcgs/internal/phylip"
	"mpcgs/internal/sched"
	"mpcgs/internal/trace"
)

// daemonSetupProbes is how many fresh daemons a service run starts only
// to time set-up, besides the one it measures with. A start takes a few
// milliseconds, so many starts are cheap and steady the median.
const daemonSetupProbes = 15

// probeSettle is how long a set-up probe daemon runs before it is stopped.
const probeSettle = 20 * time.Millisecond

// Service deadlines: how long a phase may take to finish its jobs, and
// how long a daemon may take to start or to exit after SIGTERM.
const (
	phaseTimeout = 90 * time.Second
	exitTimeout  = 30 * time.Second
)

// pollGap paces the status poller so it observes completions promptly
// without taking the daemon's CPU.
const pollGap = 2 * time.Millisecond

// daemon is one running mpcgsd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// startDaemon execs mpcgsd on state and returns once /healthz answers
// 200, with the time from exec to that answer.
func startDaemon(bin, state string, workers int) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-state", state, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers), "-checkpoint-every", "100", "-q")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the workload process, even if that is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		d.exited <- cmd.Wait()
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "mpcgsd: listening on ")
	if err != nil || !ok {
		d.kill()
		return nil, 0, fmt.Errorf("mpcgsd did not report its address (read %q: %v)", line, err)
	}
	d.url = addr
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < exitTimeout {
		if resp, err := client.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, errors.New("mpcgsd never became healthy")
}

// stop sends SIGTERM and waits for the drain, returning how long the
// daemon took to exit.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return 0, fmt.Errorf("mpcgsd drain: %w", err)
		}
		return time.Since(start), nil
	case <-time.After(exitTimeout):
		d.kill()
		return 0, errors.New("mpcgsd did not exit after SIGTERM")
	}
}

// kill ends the daemon forcibly and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// jobView is the part of the daemon's job representation the benchmark
// reads.
type jobView struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Steps     int    `json:"steps"`
	Resumed   bool   `json:"resumed"`
	Converged bool   `json:"converged"`
	Error     string `json:"error"`
	ThetaHex  string `json:"theta_hex"`
}

// jobRecord is one service job as the load generator saw it. The
// submitter writes a record before publishing it to the poller under
// loadGen.mu; from then on only the poller writes it.
type jobRecord struct {
	in      input
	id      string // as the daemon's 202 answer names it
	restart bool
	due     time.Time
	sent    time.Time
	acked   time.Time
	code    int
	running time.Time // first poll that saw it running (or terminal)
	done    time.Time // first poll that saw it terminal
	view    jobView
	polls   [][2]time.Time // status requests: sent, answered
}

// newClient returns an HTTP client that keeps one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// loadGen drives the daemon over two connections: the submitter posts
// jobs, the poller polls in-flight jobs round-robin.
type loadGen struct {
	r      *runCtx
	url    string
	submit *http.Client
	poll   *http.Client
	late   lateness

	mu     sync.Mutex
	flight []*jobRecord
	shed   int
	errs   int

	backlog int // poller only
}

func (g *loadGen) post(j *jobRecord) {
	p := j.in.P
	body, err := json.Marshal(map[string]any{
		"name": p.Name, "tenant": j.in.Tenant, "phylip": string(p.Phylip), "theta": p.Theta0,
		"sampler": p.Sampler, "proposals": p.Proposals, "chains": p.Chains, "adapt_ladder": p.Adapt,
		"burnin": p.Burnin, "samples": p.Samples, "em_iterations": p.EMIterations, "seed": p.Seed,
		"ess_target": p.ESSTarget,
	})
	if !g.r.op(err) {
		return
	}
	j.sent = time.Now()
	resp, err := g.submit.Post(g.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	j.acked = time.Now()
	var ack jobView
	if err == nil {
		j.code = resp.StatusCode
		if j.code == http.StatusAccepted {
			err = json.NewDecoder(resp.Body).Decode(&ack)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case err != nil:
		g.r.op(fmt.Errorf("%s: submit: %w", p.Name, err))
		return
	case j.code == http.StatusTooManyRequests:
		g.shed++
	case j.code != http.StatusAccepted:
		g.errs++
	}
	if g.r.check(j.code == http.StatusAccepted && ack.ID != "", "%s: submit answered %d (id %q), want 202 with an id", p.Name, j.code, ack.ID) {
		j.id = ack.ID
		g.flight = append(g.flight, j)
	}
}

// pollUntil polls in-flight jobs round-robin (and the daemon's backlog
// once per sweep) until until(live jobs) holds or the phase times out.
func (g *loadGen) pollUntil(until func(live int) bool) error {
	deadline := time.Now().Add(phaseTimeout)
	for k := 0; ; k++ {
		g.mu.Lock()
		live := g.flight[:0]
		for _, j := range g.flight {
			if j.done.IsZero() {
				live = append(live, j)
			}
		}
		g.flight = live
		g.mu.Unlock()
		if until(len(live)) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("service jobs did not finish in time")
		}
		time.Sleep(pollGap)
		if len(live) == 0 || k%len(live) == 0 {
			g.sampleBacklog()
		}
		if len(live) > 0 {
			if err := g.pollJob(live[k%len(live)]); err != nil {
				return err
			}
		}
	}
}

func (g *loadGen) pollJob(j *jobRecord) error {
	t0 := time.Now()
	resp, err := g.poll.Get(g.url + "/v1/jobs/" + j.id)
	if err != nil {
		return err
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	t1 := time.Now()
	if resp.StatusCode != http.StatusOK || err != nil {
		g.mu.Lock()
		g.errs++
		g.mu.Unlock()
		return fmt.Errorf("%s: status answered %d (%v)", j.id, resp.StatusCode, err)
	}
	j.polls = append(j.polls, [2]time.Time{t0, t1})
	j.view = v
	terminal := v.Status == "done" || v.Status == "failed"
	if j.running.IsZero() && (v.Status == "running" || terminal) {
		j.running = t1
	}
	if terminal {
		j.done = t1
	}
	return nil
}

func (g *loadGen) sampleBacklog() {
	resp, err := g.poll.Get(g.url + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h struct {
		Pending int `json:"pending"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) == nil {
		g.backlog = max(g.backlog, h.Pending)
	}
}

// runService is the workload process of the service workload: set-up
// probes, the open-loop arrival window, the restart phase, the reference
// checks, and, traced, the layer measurements over one verified job of
// each class.
func runService(r *runCtx, w workload, ins []input) {
	nproc := r.opts.NProc
	root := filepath.Join(r.opts.Out, "service", fmt.Sprintf("%s-%d", r.opts.Scale, r.opts.Seed))
	if err := os.RemoveAll(root); !r.op(err) {
		return
	}
	defer os.RemoveAll(root)
	var setup []float64
	c0 := readCPUTimes()
	for k := 0; k < daemonSetupProbes; k++ {
		d, ready, err := startDaemon(r.opts.Mpcgsd, filepath.Join(root, "probe"+strconv.Itoa(k)), nproc)
		if !r.op(err) {
			return
		}
		setup = append(setup, ready.Seconds())
		// mpcgsd starts serving before it installs its SIGTERM handler,
		// so a SIGTERM sent the moment /healthz first answers can kill it
		// undrained. Give it a moment first.
		time.Sleep(probeSettle)
		if _, err := d.stop(); !r.op(err) {
			return
		}
	}
	state := filepath.Join(root, "state")
	d, ready, err := startDaemon(r.opts.Mpcgsd, state, nproc)
	if !r.op(err) {
		return
	}
	setup = append(setup, ready.Seconds())
	// Set-up times are corrected for CPU time the hypervisor took away
	// while the daemons started (see cpuShare).
	r.ms.summary("setup_s", "s", scaled(setup, cpuShare(c0, readCPUTimes())))
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	var window, restart []*jobRecord
	for _, in := range ins {
		j := &jobRecord{in: in, restart: in.At < 0}
		if j.restart {
			restart = append(restart, j)
		} else {
			window = append(window, j)
		}
	}

	g := &loadGen{r: r, url: d.url, submit: newClient(), poll: newClient()}
	rss := sampleRSS(d.cmd.Process.Pid)
	open := time.Now()
	var submitterDone atomic.Bool
	go func() {
		defer submitterDone.Store(true)
		for _, j := range window {
			j.due = open.Add(time.Duration(j.in.At * float64(time.Second)))
			time.Sleep(time.Until(j.due))
			g.post(j)
			g.late.record(j.due, j.sent)
		}
	}()
	err = g.pollUntil(func(live int) bool { return live == 0 && submitterDone.Load() })
	rssSamples := rss.Stop()
	if !r.op(err) {
		for !submitterDone.Load() {
			time.Sleep(pollGap)
		}
		return
	}
	r.ms.at("rss_mb", "MB", rssSamples, rssPct)

	// Restart phase: submit the restart jobs, and Restarts times let each
	// run RestartSteps more transitions, stop the daemon with SIGTERM and
	// restart it on the populated state directory; then let them finish.
	for _, j := range restart {
		j.due = time.Now()
		g.post(j)
	}
	var restarts, drains, hwm []float64
	interrupted := make(map[*jobRecord]bool)
	for k := 0; k < w.Restarts; k++ {
		from := make(map[*jobRecord]int)
		for _, j := range restart {
			from[j] = j.view.Steps
		}
		err = g.pollUntil(func(int) bool {
			for _, j := range restart {
				if j.done.IsZero() && j.view.Steps < from[j]+w.RestartSteps {
					return false
				}
			}
			return true
		})
		if !r.op(err) {
			return
		}
		for _, j := range restart {
			if j.done.IsZero() {
				interrupted[j] = true
			}
		}
		mb, err := procStatusMB(d.cmd.Process.Pid, "VmHWM")
		if !r.op(err) {
			return
		}
		hwm = append(hwm, mb)
		drain, err := d.stop()
		d = nil
		if !r.op(err) {
			return
		}
		d2, restartT, err := startDaemon(r.opts.Mpcgsd, state, nproc)
		if !r.op(err) {
			return
		}
		d = d2
		drains = append(drains, drain.Seconds()*1e3)
		restarts = append(restarts, restartT.Seconds())
		g.url = d.url
		g.poll = newClient()
	}
	if err := g.pollUntil(func(live int) bool { return live == 0 }); !r.op(err) {
		return
	}
	mb, err := procStatusMB(d.cmd.Process.Pid, "VmHWM")
	if !r.op(err) {
		return
	}
	r.ms.set("peak_rss_mb", "MB", slices.Max(append(hwm, mb)))
	r.ms.summary("restart_s", "s", restarts)
	r.ms.summary("ckpt.drain_ms", "ms", drains)
	_, err = d.stop()
	d = nil
	if !r.op(err) {
		return
	}

	var finished []*jobRecord
	for _, j := range append(append([]*jobRecord(nil), window...), restart...) {
		if j.id == "" {
			continue
		}
		finished = append(finished, j)
		r.check(j.view.Status == "done", "%s: finished %q (%s), want done", j.id, j.view.Status, j.view.Error)
		if r.tr != nil {
			job := r.tr.Record("job", j.id, 0, j.due, j.done)
			r.tr.Record("serve.submit", j.id, job, j.sent, j.acked)
			r.tr.Record("sched.queued", j.id, job, j.acked, j.running)
			r.tr.Record("sched.running", j.id, job, j.running, j.done)
			for _, p := range j.polls {
				r.tr.Record("serve.status", j.id, job, p[0], p[1])
			}
		}
	}
	r.check(len(interrupted) > 0, "no job was still running when the daemon was stopped")
	for j := range interrupted {
		r.check(j.view.Resumed, "%s: was not resumed by the restarted daemon", j.id)
	}
	serviceMetrics(r, g, finished, open, state)

	checked := serviceChecks(r, w, window, restart)
	if len(checked) == 0 {
		r.op(errors.New("service run has no verified job"))
		return
	}
	if r.tr == nil {
		return
	}
	var ls []*loaded
	var ref []float64
	for _, j := range checked {
		l, err := j.in.P.load()
		if !r.op(err) {
			return
		}
		theta, err := ckpt.ParseHexFloat(j.view.ThetaHex)
		if !r.op(err) {
			return
		}
		ls, ref = append(ls, l), append(ref, theta)
	}
	r.measureLayers(ls, ref)
}

// checkJobsPerClass is how many window jobs of each class are re-run
// standalone; every restarted job is too.
const checkJobsPerClass = 1

// serviceChecks re-runs check jobs with sched.RunStandalone and requires
// the daemon's θ̂ to match bit for bit: checkJobsPerClass finished window
// jobs of each class and every restarted job. It returns the verified
// window jobs, one per class in mix order — the traced run measures the
// layers on them.
func serviceChecks(r *runCtx, w workload, window, restart []*jobRecord) []*jobRecord {
	perClass := make(map[string]int)
	var checks []*jobRecord
	for _, j := range window {
		if j.view.Status == "done" && perClass[j.in.Class] < checkJobsPerClass {
			perClass[j.in.Class]++
			checks = append(checks, j)
		}
	}
	checks = append(checks, restart...)
	byClass := make(map[string]*jobRecord)
	for _, j := range checks {
		want, err := standaloneTheta(j.in.P, r.opts.NProc)
		if !r.op(err) {
			continue
		}
		if r.check(want == j.view.ThetaHex, "%s: daemon θ̂ %s, standalone %s", j.id, j.view.ThetaHex, want) && !j.restart {
			byClass[j.in.Class] = j
		}
	}
	var out []*jobRecord
	for _, c := range w.Mix {
		if j, ok := byClass[c.Name]; ok {
			out = append(out, j)
		}
	}
	return out
}

// standaloneTheta estimates a service job alone with sched.RunStandalone
// and renders θ̂ the way the daemon does.
func standaloneTheta(p problem, workers int) (string, error) {
	aln, err := phylip.Read(bytes.NewReader(p.Phylip))
	if err != nil {
		return "", err
	}
	res, err := sched.RunStandalone(sched.Job{
		Name: p.Name, Alignment: aln, InitialTheta: p.Theta0, Sampler: p.Sampler,
		Proposals: p.Proposals, Chains: p.Chains, AdaptLadder: p.Adapt, Burnin: p.Burnin,
		Samples: p.Samples, EMIterations: p.EMIterations, Seed: p.Seed, ESSTarget: p.ESSTarget,
	}, workers)
	if err != nil {
		return "", fmt.Errorf("%s: standalone: %w", p.Name, err)
	}
	return ckpt.HexFloat(res.Theta), nil
}

// serviceMetrics reports the service's own figures: latency from due
// time to observed completion, throughput, generator lateness, per-layer
// queue and HTTP timings, and what the jobs left in the state directory.
func serviceMetrics(r *runCtx, g *loadGen, finished []*jobRecord, open time.Time, state string) {
	ms := r.ms
	var latency, wait, run, submit, status []float64
	var last time.Time
	var done, targeted, converged int
	for _, j := range finished {
		wait = append(wait, j.running.Sub(j.acked).Seconds())
		run = append(run, j.done.Sub(j.running).Seconds())
		submit = append(submit, j.acked.Sub(j.sent).Seconds()*1e3)
		for _, p := range j.polls {
			status = append(status, p[1].Sub(p[0]).Seconds()*1e3)
		}
		if j.in.P.ESSTarget > 0 {
			targeted++
			if j.view.Converged {
				converged++
			}
		}
		if j.restart {
			continue
		}
		latency = append(latency, j.done.Sub(j.due).Seconds())
		if j.done.After(last) {
			last = j.done
		}
		done++
	}
	ms.summary("job_latency_p50_s", "s", latency)
	ms.at("job_latency_p90_s", "s", latency, 90)
	ms.set("throughput_per_s", "1/s", float64(done)/last.Sub(open).Seconds())
	ms.tail("load.late_ms.tail", "ms", scaled(g.late.late, 1e3))
	ms.set("load.late_ms.max", "ms", g.late.max()*1e3)
	ms.summary("sched.queue_wait_s.p50", "s", wait)
	ms.tail("sched.queue_wait_s.tail", "s", wait)
	ms.summary("sched.run_s.p50", "s", run)
	ms.set("sched.backlog_max", "count", float64(g.backlog))
	ms.summary("serve.submit_ms.p50", "ms", submit)
	ms.tail("serve.submit_ms.tail", "ms", submit)
	ms.summary("serve.status_ms.p50", "ms", status)
	ms.tail("serve.status_ms.tail", "ms", status)
	ms.set("serve.shed", "count", float64(g.shed))
	ms.set("serve.errors", "count", float64(g.errs))
	if targeted > 0 {
		ms.set("stats.converged_frac", "ratio", float64(converged)/float64(targeted))
	}

	// The daemon's state directory holds jobs/<id>/ with the job's journal
	// record and its checkpoint directory. This layout is the one thing
	// the benchmark reads from the daemon other than its HTTP answers.
	var journal, snapshot, sidecar, frames float64
	for _, j := range finished {
		dir := filepath.Join(state, "jobs", j.id)
		journal += fileSize(ckpt.JobRecordPath(dir))
		snapshot += fileSize(ckpt.Path(filepath.Join(dir, "ckpt")))
		traces, _ := filepath.Glob(filepath.Join(dir, "ckpt", "*.trace*"))
		for _, t := range traces {
			if info, err := trace.Stat(t); r.op(err) {
				sidecar += float64(info.FileBytes)
				frames += float64(info.Frames)
			}
		}
	}
	n := float64(len(finished))
	ms.set("ckpt.journal_bytes_per_job", "B", journal/n)
	ms.set("ckpt.snapshot_bytes_per_job", "B", snapshot/n)
	ms.set("trace.sidecar_bytes_per_job", "B", sidecar/n)
	ms.set("trace.frames_per_job", "count", frames/n)
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}
