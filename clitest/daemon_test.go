package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemon is one live mpcgsd process under test: started on port 0, its
// base URL scraped from the advertised listening line.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error

	mu  sync.Mutex
	out bytes.Buffer
}

func startDaemon(t *testing.T, state string) *daemon {
	t.Helper()
	d := &daemon{done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(binDir, "mpcgsd"),
		"-addr", "127.0.0.1:0", "-state", state,
		"-workers", "2", "-quantum", "16", "-checkpoint-every", "64")
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = &stderrWriter{d: d}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })

	// The resolved address is printed before anything else; scrape it,
	// then keep draining output for post-mortem diagnostics.
	scanner := bufio.NewScanner(stdout)
	deadline := time.AfterFunc(time.Minute, func() { _ = d.cmd.Process.Kill() })
	for scanner.Scan() {
		line := scanner.Text()
		d.mu.Lock()
		d.out.WriteString(line + "\n")
		d.mu.Unlock()
		if rest, ok := strings.CutPrefix(line, "mpcgsd: listening on "); ok {
			d.base = strings.TrimSpace(rest)
			break
		}
	}
	deadline.Stop()
	if d.base == "" {
		_ = d.cmd.Process.Kill()
		<-d.wait()
		t.Fatalf("mpcgsd never advertised its address:\n%s", d.output())
	}
	go func() {
		for scanner.Scan() {
			d.mu.Lock()
			d.out.WriteString(scanner.Text() + "\n")
			d.mu.Unlock()
		}
		d.done <- d.cmd.Wait()
	}()
	return d
}

type stderrWriter struct{ d *daemon }

func (w *stderrWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.out.Write(p)
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

func (d *daemon) wait() chan error { return d.done }

// drain SIGTERMs the daemon and requires a clean (exit 0) drain.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("mpcgsd did not drain cleanly: %v\n%s", err, d.output())
		}
	case <-time.After(2 * time.Minute):
		_ = d.cmd.Process.Kill()
		t.Fatalf("mpcgsd hung on SIGTERM:\n%s", d.output())
	}
	if !strings.Contains(d.output(), "drained cleanly") {
		t.Fatalf("no drain confirmation in output:\n%s", d.output())
	}
	if !strings.Contains(d.output(), "mpcgsd: pattern kernels ") {
		t.Fatalf("no kernel tier line in output:\n%s", d.output())
	}
}

// jobView is the slice of the daemon's job JSON the smoke test compares.
type jobView struct {
	ID       string   `json:"id"`
	Status   string   `json:"status"`
	Steps    int      `json:"steps"`
	Resumed  bool     `json:"resumed"`
	Error    string   `json:"error"`
	ThetaHex string   `json:"theta_hex"`
	TraceHex []string `json:"trace_hex"`
}

func submitJob(t *testing.T, base, name, phy string, seed uint64) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"name":          name,
		"tenant":        "smoke",
		"phylip":        phy,
		"theta":         1.0,
		"sampler":       "gmh",
		"burnin":        200,
		"samples":       20000,
		"em_iterations": 2,
		"seed":          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view jobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d: %s", name, resp.StatusCode, view.Error)
	}
	return view.ID
}

func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view jobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll %s: HTTP %d: %s", id, resp.StatusCode, view.Error)
	}
	return view
}

func waitJobDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		view := getJob(t, base, id)
		switch view.Status {
		case "done":
			return view
		case "failed":
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 5m", id, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// traceKey condenses the bit-exact trajectory of one finished job: the
// final theta and every per-iteration EM output, all in hex.
func traceKey(v jobView) string {
	return v.ThetaHex + "|" + strings.Join(v.TraceHex, ",")
}

// TestMpcgsdServiceSmoke is the CI drain/resume gate, end to end over the
// real binary and real HTTP: three jobs submitted to a fresh daemon, the
// daemon SIGTERMed mid-run, restarted on the same state directory, and
// every job's theta trajectory must match an uninterrupted daemon's run
// bit for bit.
func TestMpcgsdServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke")
	}
	// Three distinct datasets, generated through the real CLI pipeline.
	var phys []string
	for i := 0; i < 3; i++ {
		trees := run(t, "mssim", "", "-seed", fmt.Sprint(61+2*i), "8", "1")
		phys = append(phys, run(t, "seqgen", trees, "-l", "120", "-seed", fmt.Sprint(62+2*i)))
	}
	names := []string{"lineage-a", "lineage-b", "lineage-c"}
	seeds := []uint64{71, 72, 73}
	dir := t.TempDir()

	// Reference: an uninterrupted daemon runs all three to completion.
	ref := startDaemon(t, filepath.Join(dir, "ref"))
	want := make(map[string]string, 3)
	var ids []string
	for i, name := range names {
		ids = append(ids, submitJob(t, ref.base, name, phys[i], seeds[i]))
	}
	for _, id := range ids {
		want[id] = traceKey(waitJobDone(t, ref.base, id))
	}
	ref.drain(t)

	// Interrupted: same jobs on a fresh state directory, SIGTERM lands
	// while they are still running.
	state := filepath.Join(dir, "drain")
	d := startDaemon(t, state)
	for i, name := range names {
		submitJob(t, d.base, name, phys[i], seeds[i])
	}
	// Drain once some job is observed mid-run: admitted, not finished,
	// with recorded steps.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		started := false
		for _, id := range ids {
			v := getJob(t, d.base, id)
			started = started || v.Steps > 0 && v.Status != "done" && v.Status != "failed"
		}
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job observed mid-run within a minute")
		}
	}
	running := 0
	for _, id := range ids {
		switch getJob(t, d.base, id).Status {
		case "done", "failed":
		default:
			running++
		}
	}
	if running == 0 {
		t.Fatal("all jobs finished before the drain; grow the workload so SIGTERM lands mid-run")
	}
	d.drain(t)

	// Restart on the same state directory: every journaled job resumes
	// automatically and must land on the reference trajectory exactly.
	d2 := startDaemon(t, state)
	resumed := 0
	for _, id := range ids {
		view := waitJobDone(t, d2.base, id)
		if view.Resumed {
			resumed++
		}
		if got := traceKey(view); got != want[id] {
			t.Errorf("job %s: trajectory diverged after drain+restart\n got %s\nwant %s", id, got, want[id])
		}
	}
	if resumed == 0 {
		t.Error("no job reported resumed=true after restart")
	}
	d2.drain(t)
}

// TestMpcgsdSigtermDuringStartup: a SIGTERM that lands while a restarted
// daemon is still replaying its journal — before it listens — must drain
// it like any other (exit 0, "drained cleanly"), not kill it with jobs
// mid-quantum. Every journaled job must then resume on the next start and
// run to completion.
func TestMpcgsdSigtermDuringStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke")
	}
	state := filepath.Join(t.TempDir(), "state")
	d := startDaemon(t, state)
	var ids []string
	for i := 0; i < 4; i++ {
		trees := run(t, "mssim", "", "-seed", fmt.Sprint(81+2*i), "8", "1")
		phy := run(t, "seqgen", trees, "-l", "120", "-seed", fmt.Sprint(82+2*i))
		ids = append(ids, submitJob(t, d.base, fmt.Sprintf("early-%d", i), phy, uint64(91+i)))
	}
	d.drain(t)

	// Restart and signal on the first replayed job: the journal holds four
	// in-flight jobs, so the replay is still going.
	r := &daemon{}
	r.cmd = exec.Command(filepath.Join(binDir, "mpcgsd"),
		"-addr", "127.0.0.1:0", "-state", state,
		"-workers", "2", "-quantum", "16", "-checkpoint-every", "64")
	stdout, err := r.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	r.cmd.Stderr = &stderrWriter{d: r}
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.cmd.Process.Kill() })
	deadline := time.AfterFunc(2*time.Minute, func() { _ = r.cmd.Process.Kill() })
	defer deadline.Stop()
	scanner := bufio.NewScanner(stdout)
	signalled := false
	for scanner.Scan() {
		line := scanner.Text()
		r.mu.Lock()
		r.out.WriteString(line + "\n")
		r.mu.Unlock()
		if !signalled && strings.HasPrefix(line, "mpcgsd: resumed job") {
			if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	if err := r.cmd.Wait(); err != nil || !signalled {
		t.Fatalf("SIGTERM during start-up (sent: %v): exit %v\n%s", signalled, err, r.output())
	}
	if !strings.Contains(r.output(), "drained cleanly") {
		t.Fatalf("no drain confirmation in output:\n%s", r.output())
	}

	d2 := startDaemon(t, state)
	for _, id := range ids {
		if view := waitJobDone(t, d2.base, id); !view.Resumed {
			t.Errorf("job %s finished without resuming its checkpoint", id)
		}
	}
	d2.drain(t)
}
