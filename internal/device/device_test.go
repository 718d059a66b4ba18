package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mpcgs/internal/logspace"
)

func TestLaunchCoversAllThreads(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		d := New(workers)
		const n = 1000
		var hits [n]atomic.Int32
		d.Launch(n, func(tid int) { hits[tid].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: thread %d executed %d times", workers, i, hits[i].Load())
			}
		}
		d.Close()
	}
}

func TestLaunchZeroAndNegative(t *testing.T) {
	d := New(4)
	defer d.Close()
	ran := false
	d.Launch(0, func(int) { ran = true })
	d.Launch(-5, func(int) { ran = true })
	if ran {
		t.Error("kernel ran for empty grid")
	}
}

func TestLaunchFewerThreadsThanWorkers(t *testing.T) {
	d := New(16)
	defer d.Close()
	var count atomic.Int32
	d.Launch(3, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("count = %d, want 3", count.Load())
	}
}

func TestNestedLaunch(t *testing.T) {
	// Dynamic parallelism: each outer thread launches an inner grid.
	d := New(4)
	defer d.Close()
	const outer, inner = 10, 20
	var count atomic.Int32
	d.Launch(outer, func(int) {
		d.Launch(inner, func(int) { count.Add(1) })
	})
	if count.Load() != outer*inner {
		t.Errorf("count = %d, want %d", count.Load(), outer*inner)
	}
}

func TestLaunchPanicPropagates(t *testing.T) {
	d := New(4)
	defer d.Close()
	defer func() {
		if recover() == nil {
			t.Error("kernel panic did not propagate")
		}
	}()
	d.Launch(100, func(tid int) {
		if tid == 37 {
			panic("boom")
		}
	})
}

func TestStats(t *testing.T) {
	d := New(2)
	defer d.Close()
	d.Launch(5, func(int) {})
	d.Launch(7, func(int) {})
	launches, threads := d.Stats()
	if launches != 2 || threads != 12 {
		t.Errorf("Stats = %d launches %d threads, want 2, 12", launches, threads)
	}
}

func TestWorkersDefault(t *testing.T) {
	d := New(0)
	defer d.Close()
	if d.Workers() < 1 {
		t.Error("default workers < 1")
	}
	if Serial().Workers() != 1 {
		t.Error("Serial device not single-worker")
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 100, 1024, 4097} {
		xs := make([]float64, n)
		var want float64
		for i := range xs {
			xs[i] = r.NormFloat64()
			want += xs[i]
		}
		for _, workers := range []int{1, 8} {
			d := New(workers)
			got := d.ReduceSum(xs)
			d.Close()
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("n=%d workers=%d: ReduceSum = %v, want %v", n, workers, got, want)
			}
		}
	}
}

func TestReduceSumDeterministic(t *testing.T) {
	// The warp-tree reduction must give bit-identical results across runs
	// and worker counts: tree shape is fixed, not scheduling-dependent.
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	ref := New(1).ReduceSum(xs)
	for _, workers := range []int{2, 5, 16} {
		for rep := 0; rep < 3; rep++ {
			d := New(workers)
			got := d.ReduceSum(xs)
			d.Close()
			if got != ref {
				t.Fatalf("workers=%d rep=%d: %v != %v (non-deterministic reduction)", workers, rep, got, ref)
			}
		}
	}
}

func TestReduceMax(t *testing.T) {
	d := New(4)
	defer d.Close()
	xs := []float64{-5, 3, -1, 2.5}
	if got := d.ReduceMax(xs); got != 3 {
		t.Errorf("ReduceMax = %v, want 3", got)
	}
	if got := d.ReduceMax(nil); !logspace.IsZero(got) {
		t.Errorf("ReduceMax(nil) = %v, want -Inf", got)
	}
}

func TestReduceLogSumMatchesLogspace(t *testing.T) {
	d := New(8)
	defer d.Close()
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(v, 600)
		}
		got := d.ReduceLogSum(xs)
		want := logspace.Sum(xs)
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReduceLogSumUnderflowScale(t *testing.T) {
	d := New(4)
	defer d.Close()
	xs := []float64{-1e4, -1e4, -1e4, -1e4}
	want := -1e4 + math.Log(4)
	if got := d.ReduceLogSum(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("ReduceLogSum = %v, want %v", got, want)
	}
}

func TestReduceLogSumAllNegInf(t *testing.T) {
	d := New(4)
	defer d.Close()
	xs := []float64{logspace.NegInf, logspace.NegInf}
	if got := d.ReduceLogSum(xs); !logspace.IsZero(got) {
		t.Errorf("ReduceLogSum(all -Inf) = %v, want -Inf", got)
	}
}

func TestLaunchParallelismActuallyConcurrent(t *testing.T) {
	// With w workers and n == w long-running threads, all must overlap:
	// verified by requiring every thread to observe the barrier count
	// reach w before finishing (would deadlock if serialized; bounded by
	// test timeout).
	const w = 4
	d := New(w)
	defer d.Close()
	var entered atomic.Int32
	d.Launch(w, func(int) {
		entered.Add(1)
		for entered.Load() < w {
			// spin until all threads have entered
		}
	})
}

func TestLaunchBlocksCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			d := New(workers)
			covered := make([]atomic.Int32, n)
			d.LaunchBlocks(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad block [%d, %d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			for i := range covered {
				if covered[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, covered[i].Load())
				}
			}
			d.Close()
		}
	}
}

func TestPoolReuseAcrossLaunches(t *testing.T) {
	// The persistent pool must survive and stay correct over many launches
	// on one device, including grids both larger and smaller than the
	// worker count.
	d := New(8)
	defer d.Close()
	for rep := 0; rep < 200; rep++ {
		n := 1 + rep%67
		var count atomic.Int32
		d.Launch(n, func(int) { count.Add(1) })
		if int(count.Load()) != n {
			t.Fatalf("rep %d: %d threads ran, want %d", rep, count.Load(), n)
		}
	}
	launches, _ := d.Stats()
	if launches != 200 {
		t.Errorf("Stats launches = %d, want 200", launches)
	}
}

func TestNestedLaunchDeep(t *testing.T) {
	// Three levels of dynamic parallelism on a small pool: every inner
	// launcher participates in its own grid, so this must complete even
	// though the pool has fewer workers than live grids.
	d := New(2)
	defer d.Close()
	var count atomic.Int32
	d.Launch(4, func(int) {
		d.Launch(4, func(int) {
			d.Launch(4, func(int) { count.Add(1) })
		})
	})
	if count.Load() != 64 {
		t.Errorf("count = %d, want 64", count.Load())
	}
}

func TestNestedLaunchPanicPropagates(t *testing.T) {
	d := New(4)
	defer d.Close()
	defer func() {
		if recover() == nil {
			t.Error("nested kernel panic did not propagate")
		}
	}()
	d.Launch(8, func(outer int) {
		d.Launch(8, func(inner int) {
			if outer == 3 && inner == 5 {
				panic("inner boom")
			}
		})
	})
}

func TestLaunchPanicStillCompletesGrid(t *testing.T) {
	// A panic must not lose track of the grid: subsequent launches on the
	// same device still work.
	d := New(4)
	defer d.Close()
	func() {
		defer func() { recover() }()
		d.Launch(100, func(tid int) {
			if tid == 0 {
				panic("boom")
			}
		})
	}()
	var count atomic.Int32
	d.Launch(50, func(int) { count.Add(1) })
	if count.Load() != 50 {
		t.Errorf("post-panic launch ran %d threads, want 50", count.Load())
	}
}

func TestConcurrentLaunchesShareOnePool(t *testing.T) {
	// Multiple goroutines launching on the same device concurrently (the
	// multichain pattern) must each see exactly their own grid.
	d := New(4)
	defer d.Close()
	const callers, n = 6, 500
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int32
			d.Launch(n, func(int) { count.Add(1) })
			if count.Load() != n {
				t.Errorf("concurrent launch ran %d threads, want %d", count.Load(), n)
			}
		}()
	}
	wg.Wait()
}

func TestCloseThenLaunchDegradesToCaller(t *testing.T) {
	d := New(8)
	d.Close()
	d.Close() // double Close is fine
	var count atomic.Int32
	d.Launch(100, func(int) { count.Add(1) })
	if count.Load() != 100 {
		t.Errorf("launch after Close ran %d threads, want 100", count.Load())
	}
	if got := d.ReduceSum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("ReduceSum after Close = %v, want 6", got)
	}
}

func TestLaunchBlocksBlockCount(t *testing.T) {
	d := New(4)
	defer d.Close()
	var blocks atomic.Int32
	d.LaunchBlocks(100, func(lo, hi int) { blocks.Add(1) })
	if got := blocks.Load(); got != 4 {
		t.Errorf("got %d blocks, want 4", got)
	}
	// Fewer items than workers: one block per item.
	blocks.Store(0)
	d.LaunchBlocks(2, func(lo, hi int) {
		if hi-lo != 1 {
			t.Errorf("block size %d, want 1", hi-lo)
		}
		blocks.Add(1)
	})
	if got := blocks.Load(); got != 2 {
		t.Errorf("got %d blocks, want 2", got)
	}
}

func TestPoolLaunchAfterCloseReturnsErrClosed(t *testing.T) {
	// Regression: a late Launch on a closed shared pool must fail fast
	// with the sentinel instead of hanging or silently absorbing the grid
	// on the calling goroutine (the Device teardown behaviour, which is
	// wrong for a long-lived batch service).
	p := NewPool(4)
	if err := p.Launch(10, func(int) {}); err != nil {
		t.Fatalf("Launch on open pool: %v", err)
	}
	p.Close()
	p.Close() // double Close is fine

	done := make(chan error, 1)
	go func() {
		done <- p.Launch(100, func(int) {
			t.Error("kernel ran on a closed pool")
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Launch after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Launch after Close hung")
	}
	if _, err := p.Tenant("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Tenant after Close = %v, want ErrClosed", err)
	}
	if !p.Closed() {
		t.Error("Closed() = false after Close")
	}
}

func TestPoolTenantViewsShareWorkersSplitAccounting(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	a, err := p.Tenant("job-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Tenant("job-b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "job-a" || b.Name() != "job-b" {
		t.Fatalf("tenant names %q, %q", a.Name(), b.Name())
	}
	if a.Workers() != p.Workers() || b.Workers() != p.Workers() {
		t.Fatal("tenant views must report the shared pool's parallelism")
	}
	var ca, cb atomic.Int32
	a.Launch(100, func(int) { ca.Add(1) })
	b.Launch(60, func(int) { cb.Add(1) })
	b.Launch(40, func(int) { cb.Add(1) })
	if ca.Load() != 100 || cb.Load() != 100 {
		t.Fatalf("tenant grids ran %d/%d threads, want 100/100", ca.Load(), cb.Load())
	}
	la, ta := a.Stats()
	lb, tb := b.Stats()
	if la != 1 || ta != 100 {
		t.Errorf("tenant a stats = %d launches/%d threads, want 1/100", la, ta)
	}
	if lb != 2 || tb != 100 {
		t.Errorf("tenant b stats = %d launches/%d threads, want 2/100", lb, tb)
	}
	if l, th := p.Stats(); l != 3 || th != 200 {
		t.Errorf("pool aggregate stats = %d/%d, want 3/200", l, th)
	}
}

func TestPoolTenantsInterleaveFairly(t *testing.T) {
	// A tenant launching a long grid must not block another tenant's short
	// grid until the long one drains: round-robin chunk claiming lets the
	// short launch finish while the long grid is still in flight.
	p := NewPool(4)
	defer p.Close()
	long, err := p.Tenant("long")
	if err != nil {
		t.Fatal(err)
	}
	short, err := p.Tenant("short")
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	var once sync.Once
	longDone := make(chan struct{})
	go func() {
		defer close(longDone)
		long.Launch(10000, func(int) {
			once.Do(func() { close(started) })
			time.Sleep(20 * time.Microsecond)
		})
	}()
	<-started
	shortDone := make(chan struct{})
	go func() {
		defer close(shortDone)
		var n atomic.Int32
		short.Launch(8, func(int) { n.Add(1) })
		if n.Load() != 8 {
			t.Errorf("short grid ran %d threads, want 8", n.Load())
		}
	}()
	select {
	case <-shortDone:
		// The short tenant completed while the long grid was (very likely)
		// still running; either way it was not starved.
	case <-time.After(10 * time.Second):
		t.Fatal("short tenant starved behind long tenant's grid")
	}
	<-longDone
}

func TestConcurrentTenantLaunchesCorrect(t *testing.T) {
	// Many tenants launching concurrently on one pool: every grid sees
	// exactly its own threads (the batch-scheduler pattern).
	p := NewPool(4)
	defer p.Close()
	const tenants, n = 8, 300
	var wg sync.WaitGroup
	for c := 0; c < tenants; c++ {
		dev, err := p.Tenant(fmt.Sprintf("t%d", c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var count atomic.Int32
				dev.Launch(n, func(int) { count.Add(1) })
				if count.Load() != n {
					t.Errorf("tenant launch ran %d threads, want %d", count.Load(), n)
				}
			}
		}()
	}
	wg.Wait()
}

func TestLaunchAffineCoversAllThreads(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		d := New(workers)
		for _, n := range []int{1, 3, 100, 1000} {
			var hits = make([]atomic.Int32, n)
			d.LaunchAffine(n, func(tid int) { hits[tid].Add(1) })
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: thread %d executed %d times",
						workers, n, i, hits[i].Load())
				}
			}
		}
		d.Close()
	}
}

func TestLaunchAffineZeroAndNegative(t *testing.T) {
	d := New(4)
	defer d.Close()
	ran := false
	d.LaunchAffine(0, func(int) { ran = true })
	d.LaunchAffine(-5, func(int) { ran = true })
	if ran {
		t.Error("kernel ran for empty grid")
	}
}

func TestLaunchAffineRepeatedRounds(t *testing.T) {
	// The round-loop shape affinity exists for: the same small grid
	// launched many times. Every round must still cover every thread
	// exactly once, whatever the segment cursors did last round.
	d := New(4)
	defer d.Close()
	const n, rounds = 37, 200
	for r := 0; r < rounds; r++ {
		var hits = make([]atomic.Int32, n)
		d.LaunchAffine(n, func(tid int) { hits[tid].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("round %d: thread %d executed %d times", r, i, hits[i].Load())
			}
		}
	}
}

func TestLaunchAffineStealsWhenIdle(t *testing.T) {
	// One slow thread must not strand the rest of its segment: idle
	// workers steal from other segments, so total wall time stays far
	// below serial execution of the slow segment.
	d := New(8)
	defer d.Close()
	const n = 64
	var count atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.LaunchAffine(n, func(tid int) {
			if tid == 0 {
				time.Sleep(50 * time.Millisecond)
			}
			count.Add(1)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("affine launch hung")
	}
	if count.Load() != n {
		t.Errorf("count = %d, want %d", count.Load(), n)
	}
}

func TestLaunchAffineNestedInsideLaunch(t *testing.T) {
	// Two-level parallelism as the felsen kernel uses it: an outer
	// proposal grid whose threads each launch an affine block grid.
	d := New(4)
	defer d.Close()
	const outer, inner = 8, 16
	var count atomic.Int32
	d.Launch(outer, func(int) {
		d.LaunchAffine(inner, func(int) { count.Add(1) })
	})
	if count.Load() != outer*inner {
		t.Errorf("count = %d, want %d", count.Load(), outer*inner)
	}
}

func TestLaunchAffineTenantsInterleave(t *testing.T) {
	// Affinity layers on top of tenant fairness, not instead of it:
	// concurrent tenants issuing affine grids all complete correctly.
	p := NewPool(4)
	defer p.Close()
	const tenants, n = 6, 200
	var wg sync.WaitGroup
	for c := 0; c < tenants; c++ {
		dev, err := p.Tenant(fmt.Sprintf("aff%d", c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 15; rep++ {
				var count atomic.Int32
				dev.LaunchAffine(n, func(int) { count.Add(1) })
				if count.Load() != n {
					t.Errorf("tenant affine launch ran %d threads, want %d", count.Load(), n)
				}
			}
		}()
	}
	wg.Wait()
}
