// Package device provides the simulated GPGPU execution substrate the
// sampler's kernels run on.
//
// The paper targets CUDA hardware (§4.4): kernels launched over grids of
// threads, warp-shuffle tree reductions, dynamic parallelism (kernels
// launching kernels) and constant memory. This package reproduces that
// execution model over goroutines: Launch runs a kernel over a 1-D grid
// with bounded worker parallelism, reductions are performed hierarchically
// (pairwise shuffle-style within 32-wide warps, then a serial combine by a
// master thread exactly as §5.2.1-5.2.3 describe), and nested Launch calls
// are legal from inside kernels. Absolute throughput differs from a GPU,
// but the work decomposition — which is what the paper's scaling results
// measure — is preserved.
//
// # Execution model
//
// A Device owns a pool of persistent worker goroutines, started lazily on
// the first parallel Launch — the analogue of a GPU's resident SM
// schedulers. Each Launch publishes one task (kernel, grid size) to the
// pool; workers and the launching goroutine claim contiguous chunks of the
// grid by atomic fetch-and-add until the grid is exhausted, so load
// imbalance between chunks self-corrects without per-thread goroutine
// spawns. Because the launching goroutine always participates in its own
// grid, a nested Launch issued from inside a kernel (dynamic parallelism,
// §4.4) completes even when every pool worker is busy with the outer grid
// — nesting cannot deadlock. A panic in any kernel thread is captured and
// re-raised on the launching goroutine after the grid completes.
//
// Between launches the pool spins, then parks. A worker that finds no
// pending task polls the pool's submit counter for a short fixed budget
// (spinBudget) before it parks on a condition variable, and a launcher
// that has drained its own claims polls its grid's completion count for
// the same budget before it blocks. Back-to-back launches — a sampler's
// sweep of small grids — therefore reach an awake worker instead of paying
// a futex wake-up each. Spinning follows the machine: nothing spins at
// GOMAXPROCS 1, at most GOMAXPROCS−1 workers of a pool spin at once, both
// loops yield with runtime.Gosched so other goroutines keep their CPU,
// and Close ends every spin at once. Which chunks exist and how results
// combine never depends on who claims them, so spinning changes latency
// only, never results.
//
// Close tears the pool down; a closed (or never-started) Device still
// executes every Launch correctly on the calling goroutine. Devices that
// are garbage-collected without Close have their workers reclaimed by a
// runtime cleanup.
package device

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcgs/internal/logspace"
)

// ErrClosed is returned by Pool.Tenant after Close: a long-lived batch
// service must hear about shutdown instead of starting a job whose grids
// would silently run on the calling goroutine.
var ErrClosed = errors.New("device: pool closed")

// WarpSize is the number of threads cooperating in one shuffle reduction,
// matching the 32-thread warps of every CUDA compute version (§5.1.3).
const WarpSize = 32

// chunkDivisor sets how many chunks per worker a grid is split into:
// more chunks smooth load imbalance, fewer chunks reduce claim traffic.
const chunkDivisor = 4

// fairQuantum is how many chunks a pool worker claims from one task
// before returning to the queue to re-pick. Bounding the quantum keeps
// chunk claiming fair across tenants of a shared pool: a worker never
// pins itself to one tenant's grid while another tenant's launch waits.
const fairQuantum = chunkDivisor

// spinBudget is how long an idle pool worker polls for the next submit,
// and how long a launcher polls for its grid's last chunk, before either
// blocks on the runtime. Parking costs a futex wake-up per launch, and a
// rung's work per launch is one felsen StageDelta, ≈ 6 µs at
// BenchmarkHeatedStep/heated-mc3's shape (12×1000 data, 2 workers; the
// median of 6 runs of 40 000 edits on a 2-vCPU x86 host), so an MC³
// sweep of four rung launches ran mostly on its launcher alone. Measured
// on that host with the bench workloads (seed 1, a 1 ms budget, 200k
// idle gaps each), the share of worker idle gaps ended by a submit
// within 64 / 128 µs was 99.6 / 99.7% on heated-mc3, 99.4 / 99.8% on
// gmh-longseq and 97.6 / 99.6% on gmh-manysamples, whose M-step and
// resimulation gaps sit at 16–64 µs. 100 µs bridges all but about 0.5% of gaps; heated-mc3
// throughput read the same at 25, 50, 100 and 200 µs within run noise.
const spinBudget = 100 * time.Microsecond

// Device executes kernels with a bounded degree of parallelism. A Device
// is either a root (owning its worker pool) or a tenant view of a shared
// Pool: views share the root's workers but carry their own launch
// accounting, so a batch scheduler can attribute device time per job.
type Device struct {
	workers  int
	pool     *pool   // nil for single-worker devices
	root     *Device // the pool-owning device; self for roots
	name     string  // tenant label; empty for roots
	launches atomic.Int64
	threads  atomic.Int64
}

// pool is the persistent worker substrate of a Device. It is a separate
// allocation so that worker goroutines keep only the pool alive, letting a
// runtime cleanup stop them once the Device itself becomes unreachable.
type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*task // published tasks that may still have unclaimed chunks
	rr       int     // round-robin cursor over pending tasks (tenant fairness)
	size     int     // target number of workers
	spinning int     // workers inside a spin window
	started  bool
	closed   bool

	// submits counts submits and closes: a spinning worker polls it
	// without the lock and re-picks under the lock once it moves.
	submits atomic.Uint64
}

// task is one published Launch: a grid of n kernel threads claimed in
// chunks by atomic fetch-and-add.
type task struct {
	kernel   func(tid int)
	n        int
	chunk    int
	next     atomic.Int64 // next unclaimed grid index
	done     atomic.Int64 // grid indices accounted for (run or skipped by panic)
	finished chan struct{}

	// segs, when non-nil, selects affinity claiming (LaunchAffine): the
	// chunk axis is split into len(segs) contiguous segments, worker w
	// drains segment w through its own cursor before stealing from the
	// others round-robin. The segment map is a pure function of
	// (n, chunk, len(segs)), so across repeated launches of the same grid
	// the same worker keeps claiming the same grid indices — warm caches —
	// while idle workers still steal, so imbalance self-corrects exactly
	// as with the shared cursor.
	segs []seg

	panicOnce sync.Once
	panicVal  atomic.Value
}

// seg is one affinity segment's claim cursor, padded out to its own cache
// line so stealing workers do not false-share their neighbours' cursors.
type seg struct {
	next atomic.Int64
	_    [56]byte
}

// segBounds returns segment s's chunk-index range. Segments partition the
// m = ceil(n/chunk) chunks as evenly as integer division allows.
func (t *task) segBounds(s int) (lo, hi int) {
	m := (t.n + t.chunk - 1) / t.chunk
	S := len(t.segs)
	return s * m / S, (s + 1) * m / S
}

// claimAffine claims one chunk for worker w: first from w's own segment,
// then — once it is drained — stolen from the next segments round-robin.
// The choice of claiming worker never changes which chunks exist or how
// results combine, so affinity is purely a locality hint.
func (t *task) claimAffine(w int) (lo, hi int, ok bool) {
	S := len(t.segs)
	for k := 0; k < S; k++ {
		s := w + k
		if s >= S {
			s -= S
		}
		segLo, segHi := t.segBounds(s)
		if segLo >= segHi {
			continue
		}
		ci := segLo + int(t.segs[s].next.Add(1)) - 1
		if ci >= segHi {
			continue
		}
		lo = ci * t.chunk
		hi = lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// drained reports whether every chunk of the grid has been claimed.
func (t *task) drained() bool {
	if t.segs == nil {
		return int(t.next.Load()) >= t.n
	}
	for s := range t.segs {
		segLo, segHi := t.segBounds(s)
		if segLo+int(t.segs[s].next.Load()) < segHi {
			return false
		}
	}
	return true
}

// New returns a device with the given number of workers. Non-positive
// workers selects runtime.GOMAXPROCS(0).
func New(workers int) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := &Device{workers: workers}
	d.root = d
	if workers > 1 {
		p := &pool{size: workers - 1} // the launching goroutine is the last worker
		p.cond = sync.NewCond(&p.mu)
		d.pool = p
		// Stop the parked workers if the device is dropped without Close.
		runtime.AddCleanup(d, func(p *pool) { p.close() }, p)
	}
	return d
}

// tenantView returns a Device sharing d's workers and pool but carrying
// its own launch accounting under the given tenant name. The view keeps
// the root device reachable so the runtime cleanup cannot tear the shared
// pool down while any tenant still holds a view.
func (d *Device) tenantView(name string) *Device {
	return &Device{workers: d.workers, pool: d.pool, root: d.root, name: name}
}

// Name returns the tenant label of a view ("" for a root device).
func (d *Device) Name() string { return d.name }

// Serial returns a single-worker device: every kernel runs sequentially on
// the calling goroutine. It is the "1 processing unit" baseline of the
// speedup experiments.
func Serial() *Device { return New(1) }

// Workers returns the device's degree of parallelism.
func (d *Device) Workers() int { return d.workers }

// Stats returns the cumulative number of kernel launches and kernel
// threads executed, for instrumentation and tests.
func (d *Device) Stats() (launches, threads int64) {
	return d.launches.Load(), d.threads.Load()
}

// Close stops the device's persistent workers. It is safe to call Close
// more than once, and safe to keep using the device afterwards: launches
// then execute entirely on the calling goroutine.
func (d *Device) Close() {
	if d.pool != nil {
		d.pool.close()
	}
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.submits.Add(1) // ends every spin window at once
	p.cond.Broadcast()
	p.mu.Unlock()
}

// submit publishes a task to the pool and wakes parked workers, starting
// them on first use. A closed pool accepts the task silently (the caller
// runs the whole grid itself).
func (p *pool) submit(t *task) {
	p.mu.Lock()
	if !p.closed {
		if !p.started {
			p.started = true
			for i := 0; i < p.size; i++ {
				go p.worker(i)
			}
		}
		p.queue = append(p.queue, t)
		p.submits.Add(1)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// pending removes fully claimed tasks from the queue and returns the next
// one in round-robin order, or nil. Rotating across pending tasks is what
// makes chunk claiming fair across tenants of a shared pool: concurrent
// launches interleave instead of draining FIFO, so no tenant's grid can
// monopolize the workers while another tenant waits. (Each tenant has at
// most a handful of launches in flight — its chains are sequential — so
// rotating over tasks is rotating over tenants.) Caller holds p.mu.
func (p *pool) pending() *task {
	live := p.queue[:0]
	for _, t := range p.queue {
		if !t.drained() {
			live = append(live, t)
		}
	}
	// Drop references past the live prefix so finished tasks are collectable.
	for i := len(live); i < len(p.queue); i++ {
		p.queue[i] = nil
	}
	p.queue = live
	if len(live) == 0 {
		return nil
	}
	p.rr++
	return live[p.rr%len(live)]
}

// worker is the loop of one persistent pool goroutine: claim a bounded
// quantum of the next pending task's chunks, re-pick, repeat; when nothing
// is pending, spin for one budget and then park until a submit or Close.
// The bounded quantum (rather than draining the task) keeps claiming fair
// when several tenants have grids in flight. The worker's id is its stable
// affinity segment for LaunchAffine grids.
//
// The pending check and the park happen under one hold of p.mu, so a
// submit that lands while the worker spins, or just after its spin window
// ends, is never missed: it is either seen on the re-pick or its
// Broadcast finds the worker parked.
func (p *pool) worker(id int) {
	p.mu.Lock()
	maySpin := true
	for {
		if t := p.pending(); t != nil {
			p.mu.Unlock()
			t.runChunks(fairQuantum, id)
			p.mu.Lock()
			maySpin = true
			continue
		}
		if p.closed {
			break
		}
		if maySpin && p.spinning < p.spinCap() {
			seen := p.submits.Load()
			p.spinning++
			p.mu.Unlock()
			maySpin = p.spin(seen)
			p.mu.Lock()
			p.spinning--
			continue
		}
		p.cond.Wait()
		maySpin = true
	}
	p.mu.Unlock()
}

// spinCap is how many of the pool's workers may spin at once: none when
// GOMAXPROCS is 1, where a spinner could only delay the goroutine it waits
// for, and otherwise one CPU fewer than GOMAXPROCS, leaving a CPU to the
// launcher, Queue drivers, HTTP handlers and the GC.
func (p *pool) spinCap() int {
	return min(p.size, runtime.GOMAXPROCS(0)-1)
}

// spin polls the submit counter until it moves past seen (true: a task was
// submitted or the pool closed) or spinBudget elapses (false: park).
//
//mpcgs:hotpath
func (p *pool) spin(seen uint64) bool {
	start := time.Now()
	for p.submits.Load() == seen {
		if time.Since(start) >= spinBudget {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// run claims and executes chunks until the grid is exhausted — the
// launching goroutine's loop, which always sees its own grid through. The
// launcher claims as the last affinity segment (pool workers own the
// others); a nested launch's calling kernel thread uses the same slot.
func (t *task) run(launcherSeg int) { t.runChunks(math.MaxInt, launcherSeg) }

// runChunks claims and executes up to max chunks, stopping early once the
// grid is exhausted. For affinity grids, w selects the claimer's home
// segment; ordinary grids share one cursor and ignore it.
//
//mpcgs:hotpath
func (t *task) runChunks(max, w int) {
	for c := 0; c < max; c++ {
		var lo, hi int
		if t.segs != nil {
			var ok bool
			lo, hi, ok = t.claimAffine(w)
			if !ok {
				return
			}
		} else {
			lo = int(t.next.Add(int64(t.chunk))) - t.chunk
			if lo >= t.n {
				return
			}
			hi = lo + t.chunk
			if hi > t.n {
				hi = t.n
			}
		}
		t.exec(lo, hi)
	}
}

// exec runs one chunk, crediting its grid indices toward completion even
// if the kernel panics partway (the panic is re-raised by the launcher).
func (t *task) exec(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			t.panicOnce.Do(func() { t.panicVal.Store(r) }) //mpcgsvet:ignore-alloc panic capture path, already cold
		}
		if t.done.Add(int64(hi-lo)) == int64(t.n) {
			close(t.finished)
		}
	}()
	for i := lo; i < hi; i++ {
		t.kernel(i)
	}
}

// Launch runs kernel for every thread id in [0, n), returning when all
// threads have completed (launch + synchronize). The grid is claimed in
// contiguous chunks by the persistent workers and the calling goroutine
// together. Kernels may call Launch themselves (dynamic parallelism,
// §4.4): the nested grid is guaranteed to finish because its launcher
// participates, regardless of what the pool workers are doing. A panic in
// any kernel thread is re-raised on the calling goroutine.
func (d *Device) Launch(n int, kernel func(tid int)) {
	d.launch(n, kernel, false)
}

// LaunchAffine runs kernel for every thread id in [0, n) like Launch, with
// sticky worker affinity on the grid: the chunk axis is partitioned into
// per-worker segments, each persistent worker drains its own segment
// first, and only then steals from the others round-robin. Across
// repeated launches of equally sized grids the same worker keeps
// revisiting the same grid indices, so per-index working sets (the
// felsen pattern blocks) stay warm in that worker's cache. Affinity never
// changes which threads run or how the caller combines results — it is a
// locality hint only — and idle-time stealing plus the bounded pool
// quantum preserve both load balance and tenant fairness.
func (d *Device) LaunchAffine(n int, kernel func(tid int)) {
	d.launch(n, kernel, true)
}

func (d *Device) launch(n int, kernel func(tid int), affine bool) {
	if n <= 0 {
		return
	}
	d.launches.Add(1)
	d.threads.Add(int64(n))
	if d.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			kernel(i)
		}
		return
	}
	chunk := n / (d.workers * chunkDivisor)
	if chunk < 1 {
		chunk = 1
	}
	//mpcgsvet:ignore-alloc one task header and channel per launch, amortized over the whole grid
	t := &task{kernel: kernel, n: n, chunk: chunk, finished: make(chan struct{})}
	if affine {
		t.segs = make([]seg, d.workers) //mpcgsvet:ignore-alloc per-launch segment cursors, one cache line per worker, amortized over the grid
	}
	d.pool.submit(t)
	t.run(d.workers - 1)
	t.await()
	if r := t.panicVal.Load(); r != nil {
		panic(fmt.Sprintf("device: kernel panic: %v", r))
	}
}

// await returns once every grid index is accounted for. The launcher's
// own claims are drained by now and the last chunks are running on pool
// workers, typically for a few microseconds more, so it polls for one
// spinBudget before it blocks on the finished channel — unless GOMAXPROCS
// is 1, where polling would only delay those workers.
//
//mpcgs:hotpath
func (t *task) await() {
	n := int64(t.n)
	if t.done.Load() == n {
		return
	}
	if runtime.GOMAXPROCS(0) > 1 {
		start := time.Now()
		for time.Since(start) < spinBudget {
			runtime.Gosched()
			if t.done.Load() == n {
				return
			}
		}
	}
	<-t.finished
}

// LaunchBlocks partitions [0, n) into contiguous per-worker blocks and
// runs kernel once per block. It is the analogue of CUDA's thread-block
// level: kernels that need scratch memory can allocate it once per block
// instead of once per thread, the role shared memory plays in the paper's
// kernels (§4.4). Blocks execute concurrently; within a block the kernel
// iterates serially.
func (d *Device) LaunchBlocks(n int, kernel func(lo, hi int)) {
	if n <= 0 {
		return
	}
	g := d.workers
	if g > n {
		g = n
	}
	chunk := (n + g - 1) / g
	blocks := (n + chunk - 1) / chunk
	d.Launch(blocks, func(b int) {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		kernel(lo, hi)
	})
}

// reduceWarps applies the two-level reduction scheme of the paper's
// kernels: each 32-wide warp is reduced by a pairwise shuffle-down tree
// (offsets 16, 8, 4, 2, 1) in parallel, then a single master thread
// serially combines the per-warp values — "the factor of reduction is so
// great that it does not add significantly to computation costs" (§5.2.2).
// combine must be associative and commutative; identity is its unit.
func (d *Device) reduceWarps(xs []float64, identity float64, combine func(a, b float64) float64) float64 {
	n := len(xs)
	if n == 0 {
		return identity
	}
	nWarps := (n + WarpSize - 1) / WarpSize
	warpOut := make([]float64, nWarps)
	d.Launch(nWarps, func(w int) {
		var lane [WarpSize]float64
		lo := w * WarpSize
		for i := 0; i < WarpSize; i++ {
			if lo+i < n {
				lane[i] = xs[lo+i]
			} else {
				lane[i] = identity
			}
		}
		// Shuffle-down tree reduction.
		for offset := WarpSize / 2; offset > 0; offset /= 2 {
			for i := 0; i < offset; i++ {
				lane[i] = combine(lane[i], lane[i+offset])
			}
		}
		warpOut[w] = lane[0]
	})
	acc := identity
	for _, v := range warpOut {
		acc = combine(acc, v)
	}
	return acc
}

// ReduceSum returns the sum of xs using the warp-tree reduction.
func (d *Device) ReduceSum(xs []float64) float64 {
	return d.reduceWarps(xs, 0, func(a, b float64) float64 { return a + b })
}

// ReduceMax returns the maximum of xs (NegInf for an empty slice), the
// normalization pass of the posterior likelihood kernel (§5.2.3).
func (d *Device) ReduceMax(xs []float64) float64 {
	return d.reduceWarps(xs, logspace.NegInf, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// ReduceLogSum returns log(sum_i exp(xs[i])) by the paper's §5.2.3 scheme:
// a max reduction provides the normalizing factor that prevents underflow,
// then the shifted exponentials are summed with the additive reduction.
func (d *Device) ReduceLogSum(xs []float64) float64 {
	if len(xs) == 0 {
		return logspace.NegInf
	}
	m := d.ReduceMax(xs)
	if logspace.IsZero(m) {
		return logspace.NegInf
	}
	shifted := make([]float64, len(xs))
	d.Launch(len(xs), func(i int) {
		shifted[i] = math.Exp(xs[i] - m)
	})
	return m + math.Log(d.ReduceSum(shifted))
}

// Pool is the shared execution substrate of the multi-tenant batch mode:
// one device (one set of persistent workers) serving many estimation jobs
// at once, instead of the one-pool-per-run model. Each job obtains a
// tenant view with Tenant; launches from all views interleave on the same
// workers with round-robin chunk claiming, so tenants share the hardware
// fairly, and each view carries its own launch accounting.
//
// Unlike a bare Device — whose Launch deliberately degrades to a serial
// run on the caller after Close, the right teardown behaviour for a
// single estimation run — a Pool fails fast: Tenant returns ErrClosed
// once the pool has been closed, because a batch service must notice
// shutdown rather than grind a whole grid on one goroutine. Tenant
// views keep the Device contract (their launches degrade rather than
// error, and a launch in flight when Close is called still completes);
// the batch scheduler polls Closed between scheduling quanta, so a
// closed pool stops the batch at the next quantum boundary with at most
// one bounded quantum of degraded work per driver.
type Pool struct {
	mu     sync.Mutex
	root   *Device
	closed bool
}

// NewPool returns a shared pool with the given number of workers
// (non-positive selects runtime.GOMAXPROCS(0)).
func NewPool(workers int) *Pool {
	return &Pool{root: New(workers)}
}

// Workers returns the pool's degree of parallelism.
func (p *Pool) Workers() int { return p.root.Workers() }

// Tenant registers a new tenant and returns its device view. It returns
// ErrClosed if the pool has been closed.
func (p *Pool) Tenant(name string) (*Device, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	return p.root.tenantView(name), nil
}

// Close stops the shared workers. Tenant views remain safe to use for
// in-flight launches (they degrade to caller-side execution, the Device
// contract), but new Pool operations return ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.root.Close()
}

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}
