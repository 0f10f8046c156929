// Package driver is the module-level batch-allocation engine: it takes a
// set of parsed routines (a "module"), shards them across a bounded
// worker pool, allocates each with core.Allocate, and returns the
// results in input order regardless of completion order. Register
// allocation is embarrassingly parallel — core.Allocate holds no
// cross-routine state and is safe for concurrent use — so the engine's
// job is scheduling, determinism, and bookkeeping, not synchronization
// of the allocator itself.
//
// An optional content-addressed result cache (see cache.go) makes
// repeated allocation of identical kernels free: results are keyed by
// the hash of the routine's canonical text plus the canonicalized
// options, so iterated experiments and suites with duplicated kernels
// pay for each distinct allocation once.
package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/telemetry"
)

// Unit is one routine of a batch. Options, when non-nil, override the
// engine's default options for this unit (the experiment drivers mix
// machines and strategies within one batch).
type Unit struct {
	// Name labels the unit in results and error messages (a file name, a
	// kernel name); it does not contribute to the cache key.
	Name    string
	Routine *iloc.Routine
	// Load, when Routine is nil, produces the routine on demand. The
	// engine calls it only when the unit misses the cache, so a caller
	// that already knows Key can skip parsing a routine whose result is
	// cached.
	Load    func() (*iloc.Routine, error)
	Options *core.Options
	// Key, when set, is the unit's content key, KeyFor of its routine
	// under its options; the engine uses it instead of computing it.
	Key Key
}

// routine returns the unit's routine, loading it if need be.
func (u *Unit) routine() (*iloc.Routine, error) {
	switch {
	case u.Routine != nil:
		return u.Routine, nil
	case u.Load != nil:
		return u.Load()
	}
	return nil, fmt.Errorf("driver: unit has no routine")
}

// Config configures an Engine.
type Config struct {
	// Options is the default allocation configuration for units that do
	// not carry their own.
	Options core.Options
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// Worker 0 is the goroutine that calls Run, so a pool of n spawns
	// n-1 goroutines and a one-unit batch runs on the caller alone.
	Workers int
	// Cache, when non-nil, is consulted before and filled after each
	// allocation. Sharing one cache across engines and runs is safe. A
	// plain *Cache gives the in-memory LRU; a *store.Tiered adds the
	// persistent disk tier behind it.
	Cache ResultCache
	// Telemetry, when non-nil, receives driver.* metrics (unit/failure/
	// degradation counters, cache traffic, a queue-depth gauge and a
	// queue-wait histogram) and trace events: one span per batch, one
	// span per unit on its worker's trace thread, and a cache hit/miss
	// instant per lookup. Each pool worker gets tid w+1 (tid 0 keeps
	// the batch span, though worker 0 runs on the caller), and the sink
	// is threaded into every unit's core.Options so allocator pass spans
	// nest under the unit span.
	Telemetry *telemetry.Sink
	// OnUnitDone, when non-nil, is called from the worker goroutine
	// (the caller's own for worker 0) the moment unit i's result is
	// recorded — before the batch as a whole finishes. This is how the
	// async job API streams partial progress and how per-verdict audit
	// records are emitted without waiting for the slowest unit. Calls arrive concurrently from different
	// workers (each index exactly once); the callback must be safe for
	// concurrent use and should return quickly — it runs on the
	// allocation worker.
	OnUnitDone func(i int, r UnitResult)
}

// UnitResult is the outcome of one unit. Exactly one of Result and Err
// is set.
type UnitResult struct {
	Name   string
	Result *core.Result
	Err    error
	// Key is the content key the unit was looked up and cached under;
	// empty when the engine has no cache or never got as far as keying
	// the unit.
	Key      Key
	CacheHit bool
	// CacheTier says which tier satisfied a hit ("l1" memory, "l2"
	// disk) when the cache reports tiers; empty otherwise.
	CacheTier string
	// Worker is the index of the pool worker that handled the unit, and
	// Wall how long it spent on it (lookup + allocation).
	Worker int
	Wall   time.Duration
}

// WorkerStats describes one pool worker's share of a batch.
type WorkerStats struct {
	Units int
	Busy  time.Duration
}

// Utilization returns the fraction of the batch's wall time the worker
// spent allocating.
func (w WorkerStats) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(w.Busy) / float64(wall)
}

// Stats summarizes one batch run.
type Stats struct {
	// Routines is the number of units processed and Failed how many
	// returned an error.
	Routines int
	Failed   int
	// Degraded counts units whose allocation fell back to
	// spill-everywhere; Degradations records each as "name: reason" in
	// input order.
	Degraded     int
	Degradations []string
	// CacheHits and CacheMisses count this run's lookups (the cache's own
	// counters aggregate across runs and engines). CacheDiskHits is the
	// subset of CacheHits served by a tiered cache's disk tier — the
	// restart-survival path.
	CacheHits     int
	CacheMisses   int
	CacheDiskHits int
	// Wall is the batch's elapsed time; CPU sums the per-unit times
	// across workers (CPU > Wall means parallelism paid off).
	Wall time.Duration
	CPU  time.Duration
	// Workers is the pool size used; PerWorker has one entry per worker.
	Workers   int
	PerWorker []WorkerStats
}

// Speedup estimates the parallel speedup achieved: total work time over
// elapsed time.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CPU) / float64(s.Wall)
}

// Format renders the stats as the one-paragraph summary cmd/ralloc
// prints under -stats.
func (s Stats) Format() string {
	out := fmt.Sprintf("driver: %d routine(s), %d failed, %d worker(s), wall %v, cpu %v (%.2fx)",
		s.Routines, s.Failed, s.Workers, s.Wall.Round(time.Microsecond), s.CPU.Round(time.Microsecond), s.Speedup())
	if s.Degraded > 0 {
		out += fmt.Sprintf("\ndriver: %d degraded to spill-everywhere", s.Degraded)
		for _, d := range s.Degradations {
			out += "\ndriver:   " + d
		}
	}
	if s.CacheHits+s.CacheMisses > 0 {
		out += fmt.Sprintf("\ndriver: cache %d hit(s), %d miss(es)", s.CacheHits, s.CacheMisses)
		if s.CacheDiskHits > 0 {
			out += fmt.Sprintf(" (%d from disk)", s.CacheDiskHits)
		}
	}
	for i, w := range s.PerWorker {
		out += fmt.Sprintf("\ndriver: worker %d: %d unit(s), busy %v (%.0f%%)",
			i, w.Units, w.Busy.Round(time.Microsecond), 100*w.Utilization(s.Wall))
	}
	return out + "\n"
}

// Batch is the outcome of Engine.Run: one UnitResult per input unit, in
// input order.
type Batch struct {
	Results []UnitResult
	Stats   Stats
}

// FirstErr returns the first failed unit's error (in input order)
// wrapped with its name, or nil.
func (b *Batch) FirstErr() error {
	for _, r := range b.Results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return nil
}

// Engine is a reusable batch allocator. The zero value is not useful;
// construct with New. An Engine is safe for sequential reuse; each Run
// builds its own pool, with the calling goroutine as its worker 0.
type Engine struct {
	cfg Config
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg}
}

// Cache returns the engine's cache (nil when caching is off).
func (e *Engine) Cache() ResultCache { return e.cfg.Cache }

// Run allocates every unit of the batch. Results are in input order; a
// unit's failure is recorded in its UnitResult and does not stop the
// others. Determinism: core.Allocate is deterministic, so the set of
// results is independent of the worker count and completion order —
// only the Stats timing fields vary between runs.
//
// The context bounds the whole batch. Units already being allocated
// when it ends are aborted by the allocator's own context checks
// (degrading with reason "deadline" on expiry, erroring on
// cancellation); units not yet started fail immediately with ctx.Err().
// Results of units that finished before the context ended are kept
// unchanged, so a cancelled batch still returns every byte of work it
// completed.
func (e *Engine) Run(ctx context.Context, units []Unit) *Batch {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}

	b := &Batch{
		Results: make([]UnitResult, len(units)),
		Stats:   Stats{Routines: len(units), Workers: workers, PerWorker: make([]WorkerStats, workers)},
	}
	tel := e.cfg.Telemetry
	if tel != nil && tel.Trace != nil {
		for w := 0; w < workers; w++ {
			tel.Trace.SetThreadName(int64(w+1), fmt.Sprintf("worker %d", w))
		}
	}
	batchSpan := tel.StartSpan(telemetry.CatDriver, "batch")
	// Queue depth counts submitted-but-not-picked-up units; queue wait
	// is the latency from batch start to a unit's pickup by a worker.
	depth := tel.Gauge("driver.queue.depth")
	depth.Set(int64(len(units)))
	start := time.Now()
	flights := &inflight{}
	// Each worker claims its next unit index from one counter, so no
	// unit waits on a hand-off between goroutines. The caller is worker
	// 0; only the other workers-1 are spawned.
	var next atomic.Int64
	work := func(worker int) {
		wsink := tel.WithTID(int64(worker + 1))
		for i := int(next.Add(1) - 1); i < len(units); i = int(next.Add(1) - 1) {
			depth.Add(-1)
			if cerr := ctx.Err(); errors.Is(cerr, context.Canceled) {
				// The batch was abandoned before this unit started:
				// report the cancellation without touching the
				// allocator or the cache. An expired *deadline* is
				// not a skip — the unit still runs so the allocator
				// can return its spill-everywhere degradation.
				b.Results[i] = UnitResult{Name: units[i].Name, Key: units[i].Key, Err: cerr, Worker: worker}
				if e.cfg.OnUnitDone != nil {
					e.cfg.OnUnitDone(i, b.Results[i])
				}
				continue
			}
			wsink.Observe("driver.queue.wait", time.Since(start).Nanoseconds())
			sp := wsink.StartSpan(telemetry.CatUnit, units[i].Name)
			r := e.allocate(ctx, units[i], wsink, flights)
			if sp.Active() {
				if r.CacheHit {
					sp.Arg("cache_hit", 1)
				}
				if r.Err != nil {
					sp.Arg("failed", 1)
				}
				if r.Result != nil && r.Result.Degraded {
					sp.Arg("degraded", 1)
				}
			}
			r.Name, r.Worker, r.Wall = units[i].Name, worker, sp.End()
			wsink.Observe("driver.unit.wall", r.Wall.Nanoseconds())
			b.Results[i] = r
			if e.cfg.OnUnitDone != nil {
				e.cfg.OnUnitDone(i, b.Results[i])
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	func() {
		// Should OnUnitDone panic on the caller, the spawned workers
		// still finish before the panic leaves Run.
		defer wg.Wait()
		work(0)
	}()
	b.Stats.Wall = time.Since(start)

	for _, r := range b.Results {
		b.Stats.CPU += r.Wall
		b.Stats.PerWorker[r.Worker].Units++
		b.Stats.PerWorker[r.Worker].Busy += r.Wall
		if r.Err != nil {
			b.Stats.Failed++
		} else if e.cfg.Cache != nil {
			if r.CacheHit {
				b.Stats.CacheHits++
				if r.CacheTier == "l2" {
					b.Stats.CacheDiskHits++
				}
			} else {
				b.Stats.CacheMisses++
			}
		}
		if r.Result != nil && r.Result.Degraded {
			b.Stats.Degraded++
			b.Stats.Degradations = append(b.Stats.Degradations,
				fmt.Sprintf("%s: %s", r.Name, r.Result.DegradeReason))
		}
	}
	if batchSpan.Active() {
		batchSpan.Arg("routines", int64(b.Stats.Routines))
		batchSpan.Arg("workers", int64(b.Stats.Workers))
		if b.Stats.Failed != 0 {
			batchSpan.Arg("failed", int64(b.Stats.Failed))
		}
		if b.Stats.Degraded != 0 {
			batchSpan.Arg("degraded", int64(b.Stats.Degraded))
		}
	}
	batchSpan.End()
	tel.Count("driver.batches", 1)
	tel.Count("driver.units", int64(b.Stats.Routines))
	tel.Count("driver.failures", int64(b.Stats.Failed))
	tel.Count("driver.degradations", int64(b.Stats.Degraded))
	tel.Count("driver.cache.hits", int64(b.Stats.CacheHits))
	tel.Count("driver.cache.misses", int64(b.Stats.CacheMisses))
	return b
}

// allocate handles one unit with panic containment: core.Allocate
// contains panics inside its own pipeline, but the driver's cache
// lookup, key hashing and option plumbing run outside that boundary, and
// a worker goroutine that panics would kill the whole process. Any panic
// escaping a unit is recovered into a *core.AllocError so it fails that
// unit alone.
func (e *Engine) allocate(ctx context.Context, u Unit, wsink *telemetry.Sink, flights *inflight) (r UnitResult) {
	defer func() {
		if v := recover(); v != nil {
			r = UnitResult{Err: &core.AllocError{Routine: u.Name, Err: fmt.Errorf("driver: panic in worker: %v", v)}}
		}
	}()
	return e.allocateUnit(ctx, u, wsink, flights)
}

// allocateUnit handles one unit: cache lookup, allocation, cache fill.
// The worker's sink overrides the options' own so that allocator spans
// land on the worker's trace thread; Telemetry is excluded from the
// cache key, so this cannot split cache entries. The result carries
// everything but the name, worker and wall time.
func (e *Engine) allocateUnit(ctx context.Context, u Unit, wsink *telemetry.Sink, flights *inflight) UnitResult {
	opts := e.cfg.Options
	if u.Options != nil {
		opts = *u.Options
	}
	if wsink != nil {
		opts.Telemetry = wsink
	}
	cache := e.cfg.Cache
	if cache == nil {
		rt, err := u.routine()
		if err != nil {
			return UnitResult{Err: err}
		}
		res, err := core.Allocate(ctx, rt, opts)
		return UnitResult{Result: res, Err: err}
	}
	key := u.Key
	if key == "" {
		rt, err := u.routine()
		if err != nil {
			return UnitResult{Err: err}
		}
		key = KeyFor(rt, opts)
	}
	res, tier, ok := lookup(cache, key)
	if !ok {
		// Another worker of this run allocating the same key: wait for
		// it and look again. Its result may not have been cached (an
		// error, a deadline degradation); then this worker allocates.
		done, leader := flights.join(key)
		if leader {
			defer close(done)
		} else {
			<-done
			res, tier, ok = lookup(cache, key)
		}
	}
	if ok {
		wsink.Instant(telemetry.CatCache, "hit")
		return UnitResult{Result: res, Key: key, CacheHit: true, CacheTier: tier}
	}
	wsink.Instant(telemetry.CatCache, "miss")
	rt, err := u.routine()
	if err != nil {
		return UnitResult{Key: key, Err: err}
	}
	res, err = core.Allocate(ctx, rt, opts)
	if err != nil {
		return UnitResult{Key: key, Err: err}
	}
	if res.Degraded && res.DegradeReason == core.DegradeReasonDeadline {
		// A deadline-shaped degradation reflects this request's time
		// budget, not the routine: caching it would serve spill-everywhere
		// code to a later request with all the time in the world.
		return UnitResult{Result: res, Key: key}
	}
	if op, persists := cache.(OptionsPutter); persists {
		op.PutOptions(key, res, CanonicalOptionsKey(opts))
	} else {
		cache.Put(key, res)
	}
	return UnitResult{Result: res, Key: key}
}

// lookup reads key from cache, with its tier when the cache has tiers.
func lookup(cache ResultCache, key Key) (*core.Result, string, bool) {
	if tg, tiered := cache.(TierGetter); tiered {
		return tg.GetTier(key)
	}
	res, ok := cache.Get(key)
	return res, "", ok
}

// inflight records the keys the workers of one Run have started to
// allocate, so duplicate units of a batch allocate once.
type inflight struct {
	mu sync.Mutex
	m  map[Key]chan struct{}
}

// join returns the channel closed once key's first allocation in this
// run has finished, and whether the caller is that allocation (and so
// must close it). A finished key stays recorded until the run ends: a
// worker that missed just before the leader's cache fill still waits on
// it and then finds the result.
func (f *inflight) join(key Key) (done chan struct{}, leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if done, ok := f.m[key]; ok {
		return done, false
	}
	if f.m == nil {
		f.m = make(map[Key]chan struct{})
	}
	done = make(chan struct{})
	f.m[key] = done
	return done, true
}

// Allocate runs one batch with a throwaway engine — the convenience
// entry point for callers that do not reuse a cache.
func Allocate(ctx context.Context, units []Unit, cfg Config) *Batch {
	return New(cfg).Run(ctx, units)
}
