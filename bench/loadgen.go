package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// openLoopSchedule returns the arrival times, in seconds after the
// window opens, of an open-loop Poisson process of the given rate over
// window seconds, conditioned on its expected count: round(rate·window)
// arrivals placed independently and uniformly, then sorted. Fixing the
// count removes the count's own Poisson noise from run-to-run
// comparisons while keeping Poisson inter-arrival gaps.
func openLoopSchedule(r *rand.Rand, rate, window float64) []float64 {
	n := int(math.Round(rate * window))
	at := make([]float64, n)
	for i := range at {
		at[i] = r.Float64() * window
	}
	sort.Float64s(at)
	return at
}

// lateness is how far behind its schedule an open-loop generator sent
// each request: actual send time minus due time, never negative. Latency
// is measured from the due time, so a stalled generator still charges
// the stall to the requests it delayed.
type lateness struct {
	late []float64 // seconds
}

func (l *lateness) record(due, sent time.Time) {
	d := sent.Sub(due).Seconds()
	if d < 0 {
		d = 0
	}
	l.late = append(l.late, d)
}

// max returns the largest lateness seen, in seconds.
func (l *lateness) max() float64 {
	m := 0.0
	for _, d := range l.late {
		m = math.Max(m, d)
	}
	return m
}
