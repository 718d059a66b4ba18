package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the machine's CPU time so far, in clock ticks summed over
// all CPUs, from the first line of /proc/stat: the time CPUs ran tasks,
// and the time a virtual CPU was ready to run but the hypervisor ran
// something else (steal).
type cpuTimes struct {
	busy, steal uint64
}

// readCPUTimes returns the CPU times now; zero if /proc/stat cannot be
// read, which makes cpuShare report 1.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user, nice, system, idle, iowait, irq, softirq, steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// cpuShare returns the share of the CPU time that work wanted between a
// and b that it got: busy / (busy + steal). On a machine whose hypervisor
// takes CPUs away from it, CPU-bound work runs slower by this factor, so
// a duration times the share is what the work would have taken on
// CPUs of its own. Steal only accrues while a virtual CPU has work, so
// idle CPUs do not dilute it.
func cpuShare(a, b cpuTimes) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy == 0 || b.busy < a.busy || b.steal < a.steal {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
