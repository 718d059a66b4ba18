package device

import (
	"sync"
	"testing"
)

// spawnLaunch is the seed's dispatch scheme, kept as the benchmark
// reference: a fresh goroutine per worker on every Launch. The persistent
// pool replaced it; BenchmarkLaunchOverhead pins the difference.
func spawnLaunch(workers, n int, kernel func(tid int)) {
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			kernel(i)
		}
		return
	}
	g := workers
	if g > n {
		g = n
	}
	var wg sync.WaitGroup
	chunk := (n + g - 1) / g
	for w := 0; w < g; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				kernel(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// BenchmarkLaunchOverhead measures dispatch cost: an empty kernel over a
// GMH-round-sized grid (8 threads, the proposal-set size) and a
// site-kernel-sized grid (1024 threads), and a short working grid that
// shows how late a pool worker arrives. "pool" is the persistent-worker
// runtime; "spawn" is the seed's goroutine-per-call scheme.
func BenchmarkLaunchOverhead(b *testing.B) {
	noop := func(int) {}
	for _, n := range []int{8, 1024} {
		b.Run(gridName("pool", n), func(b *testing.B) {
			d := New(8)
			defer d.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Launch(n, noop)
			}
		})
		b.Run(gridName("spawn", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spawnLaunch(8, n, noop)
			}
		})
	}

	// A no-op kernel returns before a parked worker could wake, so the
	// rows above cannot see wake-up latency. Here each of 4 threads does
	// about 10 µs of work on a GOMAXPROCS-worker device — an MC³ sweep's
	// shape — so a launch costs the slowest worker's arrival plus its work.
	b.Run("pool/work-n=4", func(b *testing.B) {
		d := New(0)
		defer d.Close()
		var out [4]float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Launch(len(out), func(tid int) { out[tid] = busyWork(tid) })
		}
	})
}

// busyWorkIters sizes busyWork at about 10 µs (9.4 µs measured on a
// 2-vCPU Intel Xeon VM): a chain of dependent multiply-adds the compiler
// cannot shorten.
const busyWorkIters = 4000

func busyWork(seed int) float64 {
	x := float64(seed)
	for i := 0; i < busyWorkIters; i++ {
		x = x*0.999999 + 1e-3
	}
	return x
}

func gridName(scheme string, n int) string {
	if n == 8 {
		return scheme + "/n=8"
	}
	return scheme + "/n=1024"
}

// BenchmarkReduceSum times the warp-tree reduction at the data-likelihood
// kernel's scale.
func BenchmarkReduceSum(b *testing.B) {
	d := New(8)
	defer d.Close()
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ReduceSum(xs)
	}
}
