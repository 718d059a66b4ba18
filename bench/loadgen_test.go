package main

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestOpenLoopSchedule(t *testing.T) {
	sched := func(seed uint64) []float64 {
		return openLoopSchedule(rand.New(rand.NewPCG(seed, 1)), 4, 50)
	}
	a := sched(7)
	if len(a) != 200 {
		t.Fatalf("%d arrivals at 4/s over 50 s, want 200", len(a))
	}
	if !sort.Float64sAreSorted(a) || a[0] < 0 || a[len(a)-1] >= 50 {
		t.Fatalf("arrivals not sorted within [0, 50): first %v last %v", a[0], a[len(a)-1])
	}
	if !reflect.DeepEqual(a, sched(7)) {
		t.Error("same seed gave a different schedule")
	}
	if reflect.DeepEqual(a, sched(8)) {
		t.Error("different seeds gave the same schedule")
	}
	// Poisson gaps: mean 1/rate, and about e^-1 of them longer than it.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > 0.25 {
			long++
		}
	}
	if frac := float64(long) / float64(len(a)-1); frac < 0.25 || frac > 0.5 {
		t.Errorf("%.2f of gaps exceed the mean gap, want about 0.37", frac)
	}
}

func TestLatenessAccounting(t *testing.T) {
	var l lateness
	due := time.Now()
	l.record(due, due.Add(-time.Millisecond)) // sent early: not late
	l.record(due, due.Add(3*time.Millisecond))
	l.record(due, due.Add(time.Millisecond))
	if len(l.late) != 3 || l.late[0] != 0 {
		t.Fatalf("lateness samples %v, want 3 with the early send at 0", l.late)
	}
	if got := l.max(); got != 0.003 {
		t.Errorf("max lateness %v s, want 0.003", got)
	}
}
