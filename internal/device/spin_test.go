package device

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcgs/internal/leakcheck"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the calling test, so the pool
// spins even on a single-CPU host, and returns the restore function.
func atLeastTwoProcs() func() {
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(2)
	}
	return func() { runtime.GOMAXPROCS(prev) }
}

// spinners returns how many of p's workers are inside a spin window.
func (p *pool) spinners() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spinning
}

func TestSpinCapFollowsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct{ procs, size, want int }{
		{1, 1, 0}, {1, 7, 0}, {2, 1, 1}, {2, 7, 1}, {4, 7, 3}, {8, 3, 3},
	} {
		runtime.GOMAXPROCS(c.procs)
		p := &pool{size: c.size}
		if got := p.spinCap(); got != c.want {
			t.Errorf("GOMAXPROCS=%d size=%d: spinCap = %d, want %d", c.procs, c.size, got, c.want)
		}
	}
}

func TestSpinEndsOnClose(t *testing.T) {
	// Close moves the submit counter, so a spin window that began before
	// it ends at the next poll instead of running out its budget.
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	seen := p.submits.Load()
	p.close()
	if !p.spin(seen) {
		t.Fatal("spin did not see Close")
	}
}

func TestSpinnersBoundedByGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := New(8)
	defer d.Close()
	for rep := 0; rep < 500; rep++ {
		d.Launch(64, func(int) {})
		if s := d.pool.spinners(); s > 1 {
			t.Fatalf("rep %d: %d workers spinning at GOMAXPROCS 2, cap is 1", rep, s)
		}
	}
}

func TestLaunchWaitsPastSpinBudget(t *testing.T) {
	// A launcher whose own claims are done polls for one spin budget and
	// must then block, not return: the worker's chunk here runs for ten
	// budgets after both threads have met.
	defer atLeastTwoProcs()()
	d := New(2)
	defer d.Close()
	for rep := 0; rep < 10; rep++ {
		var entered atomic.Int32
		var finished [2]atomic.Bool
		d.Launch(2, func(tid int) {
			entered.Add(1)
			for entered.Load() < 2 {
				runtime.Gosched()
			}
			if tid == 1 {
				time.Sleep(10 * spinBudget)
			}
			finished[tid].Store(true)
		})
		if !finished[0].Load() || !finished[1].Load() {
			t.Fatalf("rep %d: Launch returned before its grid finished", rep)
		}
	}
}

func TestSpinningWorkerExitsOnClose(t *testing.T) {
	defer atLeastTwoProcs()()
	base := leakcheck.Snapshot()
	d := New(2)
	// Launch until the pool's one worker is caught inside its spin window.
	deadline := time.Now().Add(10 * time.Second)
	for d.pool.spinners() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never seen spinning after a launch")
		}
		d.Launch(8, func(int) {})
	}
	d.Close()
	leakcheck.Verify(t, base)

	// With the worker gone, a Launch runs entirely on the caller, in order.
	var order []int
	d.Launch(100, func(tid int) {
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("thread %d: %d goroutines running, want at most %d", tid, g, base)
		}
		order = append(order, tid)
	})
	for i, tid := range order {
		if tid != i {
			t.Fatalf("after Close, thread %d ran at position %d: not on the caller", tid, i)
		}
	}
	if len(order) != 100 {
		t.Fatalf("after Close, %d threads ran, want 100", len(order))
	}
}

func TestSpinThenParkStress(t *testing.T) {
	// Back-to-back short launches from several tenants of one pool, some
	// nested, some affine, separated by gaps shorter than the spin budget:
	// workers move between spinning, claiming and parking while launches
	// land in every phase. Every grid index must run exactly once.
	defer atLeastTwoProcs()()
	p := NewPool(4)
	defer p.Close()
	const tenants, launches = 4, 150
	var wg sync.WaitGroup
	for c := 0; c < tenants; c++ {
		dev, err := p.Tenant(fmt.Sprintf("spin%d", c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for rep := 0; rep < launches; rep++ {
				n := 1 + r.Intn(24)
				inner := 0
				if rep%4 == 0 {
					inner = 1 + r.Intn(12)
				}
				hits := make([]atomic.Int32, n*(1+inner))
				kernel := func(tid int) {
					hits[tid].Add(1)
					if inner > 0 {
						dev.Launch(inner, func(j int) { hits[n+tid*inner+j].Add(1) })
					}
				}
				if rep%2 == 0 {
					dev.Launch(n, kernel)
				} else {
					dev.LaunchAffine(n, kernel)
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Errorf("tenant %d launch %d: index %d ran %d times", seed, rep, i, h)
						return
					}
				}
				gap := time.Duration(r.Int63n(int64(spinBudget / 2)))
				for start := time.Now(); time.Since(start) < gap; {
				}
			}
		}(int64(c))
	}
	wg.Wait()
}
