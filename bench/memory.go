package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// procStatusMB returns a kB field of /proc/<pid>/status (VmRSS, VmHWM)
// in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssEvery is the resident-set sampling interval, and rssPct the
// percentile of the samples reported.
const (
	rssEvery = 50 * time.Millisecond
	rssPct   = 90
)

// rssSampler records a process's resident set size every rssEvery while
// a workload phase runs. A high percentile of the samples is far steadier
// than the high-water mark, which depends on where garbage collections
// happen to fall; the median is not, because resident size under load
// saw-tooths with the collection cycle.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := procStatusMB(pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the samples.
func (s *rssSampler) Stop() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
