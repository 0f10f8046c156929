// Command driverbench seeds the performance trajectory of the batch
// driver: it allocates the full benchmark suite through internal/driver
// sequentially and in parallel, then once more against a warm result
// cache, and writes the measurements as JSON (BENCH_driver.json in CI;
// see `make bench` and cmd/benchdiff for the regression gate).
//
//	driverbench [-out BENCH_driver.json] [-reps 3]
//	            [-strategy spec] [-machine name] [-regs 6]
//	            [-corpus spec] [-cache-dir dir]
//	            [-trace out.json] [-metrics] [-pprof addr]
//
// -strategy selects a registered allocation strategy by spec (default
// "remat"; see `ralloc -list-strategies`); the report records its
// canonical form so benchmark files from different strategies never
// compare silently.
// -machine selects a zoo machine by name (see `ralloc -list-machines`)
// or a regs=N sweep point, overriding -regs; it too lands in the
// report.
//
// -corpus adds a corpus-replay leg: the spec'd generated corpus (see
// internal/corpus; e.g. "count=200,seed=7") allocates through the
// parallel cold path, measuring throughput on heavy, diverse traffic
// instead of the 35 suite kernels. The report records the spec and the
// corpus routine count alongside the leg.
//
// -cache-dir backs the warm-cache leg with the persistent disk tier
// (internal/store) instead of a plain in-memory cache, and adds a
// disk_warm leg: each rep runs with a fresh (empty) L1 over the
// populated disk tier, so the measurement is the pure
// read-decode-reparse cost of a disk hit. The report's cache_stats
// carries the per-tier counters either way.
//
// The parallel leg always requests at least two workers, even on a
// single-CPU machine: speedup must be measured against real scheduler
// contention, not a silently sequential "parallel" run. The report
// records the requested and effective worker counts separately so a
// host that clamps the pool is visible in the data.
//
// -pprof serves net/http/pprof and expvar on the given address
// (e.g. localhost:6060) for profiling long batch runs; the telemetry
// metrics registry is published as the "telemetry" expvar. -trace and
// -metrics mirror ralloc's flags across the whole bench run.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/machines"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// runMeasure describes one measured configuration. JobsRequested is
// what the leg asked the driver for; JobsEffective is the pool size the
// driver actually ran (it clamps to the unit count).
type runMeasure struct {
	JobsRequested  int     `json:"jobs_requested"`
	JobsEffective  int     `json:"jobs_effective"`
	WallMs         float64 `json:"wall_ms"`
	CPUMs          float64 `json:"cpu_ms"`
	RoutinesPerSec float64 `json:"routines_per_sec"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

type report struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"num_cpu"`
	Strategy      string `json:"strategy"`
	Machine       string `json:"machine,omitempty"`
	Regs          int    `json:"regs"`
	Routines      int    `json:"routines"`
	Reps          int    `json:"reps"`

	Sequential runMeasure `json:"sequential"`
	Parallel   runMeasure `json:"parallel"`
	WarmCache  runMeasure `json:"warm_cache"`
	// Corpus measures the parallel cold path over the generated corpus
	// named by CorpusSpec (only with -corpus): heavy, diverse traffic
	// instead of the suite kernels.
	Corpus         *runMeasure `json:"corpus,omitempty"`
	CorpusSpec     string      `json:"corpus_spec,omitempty"`
	CorpusRoutines int         `json:"corpus_routines,omitempty"`
	// DiskWarm measures serving from the persistent disk tier through a
	// fresh, empty L1 (only with -cache-dir): every hit pays the disk
	// read, integrity check and re-parse.
	DiskWarm *runMeasure `json:"disk_warm,omitempty"`
	// CacheStats is the per-tier cache counter snapshot after the warm
	// legs (L2 fields stay zero without -cache-dir).
	CacheStats *store.Stats `json:"cache_stats,omitempty"`

	// Speedup is parallel over sequential wall time; CacheSpeedup warm
	// over cold parallel. On a single-CPU host Speedup hovers near 1 —
	// the parallel leg still runs >= 2 workers, so it reflects real
	// contention rather than a second sequential run.
	Speedup      float64 `json:"speedup"`
	CacheSpeedup float64 `json:"cache_speedup"`
}

func main() {
	out := flag.String("out", "BENCH_driver.json", "output file (- for stdout)")
	reps := flag.Int("reps", 3, "repetitions per configuration (best wall time wins)")
	strategy := flag.String("strategy", "remat", "allocation strategy spec (see ralloc -list-strategies)")
	machine := flag.String("machine", "", "target machine: a zoo name (see ralloc -list-machines) or regs=N; overrides -regs")
	regs := flag.Int("regs", 6, "registers per class (6 = the calibrated pressure point)")
	corpusSpec := flag.String("corpus", "", "add a corpus-replay leg over this generated-corpus spec (see internal/corpus; e.g. count=200,seed=7)")
	cacheDir := flag.String("cache-dir", "", "back the warm-cache leg with a persistent disk tier in this directory (adds the disk_warm leg)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file covering the bench run")
	metrics := flag.Bool("metrics", false, "dump the telemetry metrics registry to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	flag.Parse()

	if _, err := core.LookupStrategy(*strategy); err != nil {
		fail(err)
	}
	opts := core.Options{Machine: target.WithRegs(*regs), Strategy: *strategy}
	if *machine != "" {
		m, err := machines.Lookup(*machine)
		if err != nil {
			fail(err)
		}
		opts.Machine = m
	}

	// Telemetry: the registry always exists so expvar has something to
	// publish; the tracer only when requested.
	sink := &telemetry.Sink{Metrics: telemetry.NewRegistry()}
	if *tracePath != "" {
		sink.Trace = telemetry.NewTracer()
	}
	if *pprofAddr != "" {
		expvar.Publish("telemetry", expvar.Func(func() any {
			m := map[string]int64{}
			for _, s := range sink.Metrics.Snapshot() {
				m[s.Name] = s.Value
			}
			return m
		}))
		go func() {
			// DefaultServeMux carries /debug/pprof/* (net/http/pprof)
			// and /debug/vars (expvar) via their package inits.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "driverbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "driverbench: profiling at http://%s/debug/pprof/ (expvar at /debug/vars)\n", *pprofAddr)
	}

	// The module: every suite kernel and every callee, parsed once.
	var units []driver.Unit
	for _, k := range suite.All() {
		units = append(units, driver.Unit{Name: k.Name, Routine: k.Routine()})
		for i, crt := range k.CalleeRoutines() {
			units = append(units, driver.Unit{Name: fmt.Sprintf("%s/callee%d", k.Name, i), Routine: crt})
		}
	}

	// The parallel pool: every CPU, but never fewer than two workers —
	// a "parallel" leg that degenerates to one worker on a single-CPU
	// host would measure nothing.
	par := runtime.NumCPU()
	if par < 2 {
		par = 2
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		Strategy:      opts.Canonical().Strategy,
		Machine:       opts.Machine.Name,
		Regs:          *regs,
		Routines:      len(units),
		Reps:          *reps,
	}

	// Cold, sequential and parallel: a fresh engine (no cache) per rep,
	// best wall time of the repetitions.
	rep.Sequential = measureCold(units, opts, sink, 1, *reps)
	rep.Parallel = measureCold(units, opts, sink, par, *reps)

	// Warm: fill a cache once, then measure the fully cached batch. With
	// -cache-dir the cache is the tiered store, so the fill also
	// populates the disk tier for the disk_warm leg below.
	var cache driver.ResultCache
	var tiered *store.Tiered
	if *cacheDir != "" {
		var err error
		tiered, err = store.Open(*cacheDir, 0)
		if err != nil {
			fail(err)
		}
		cache = tiered
	} else {
		cache = driver.NewCache(0)
	}
	warmEng := driver.New(driver.Config{Options: opts, Workers: par, Cache: cache, Telemetry: sink})
	if err := warmEng.Run(context.Background(), units).FirstErr(); err != nil {
		fail(err)
	}
	best := driver.Stats{}
	for r := 0; r < *reps; r++ {
		b := warmEng.Run(context.Background(), units)
		if err := b.FirstErr(); err != nil {
			fail(err)
		}
		if best.Wall == 0 || b.Stats.Wall < best.Wall {
			best = b.Stats
		}
	}
	rep.WarmCache = toMeasure(best, par)
	rep.WarmCache.CacheHitRate = float64(best.CacheHits) / float64(best.CacheHits+best.CacheMisses)

	if tiered != nil {
		// Disk-warm: every rep gets a fresh, empty L1 over the populated
		// disk tier, so each hit pays the full L2 path. The flush first
		// guarantees the fill has landed on disk.
		tiered.Flush()
		diskBest := driver.Stats{}
		for r := 0; r < *reps; r++ {
			fresh := store.NewTiered(driver.NewCache(0), tiered.Disk())
			b := driver.New(driver.Config{Options: opts, Workers: par, Cache: fresh, Telemetry: sink}).Run(context.Background(), units)
			if err := b.FirstErr(); err != nil {
				fail(err)
			}
			if b.Stats.CacheDiskHits == 0 {
				fail(fmt.Errorf("disk_warm rep %d: no disk-tier hits (persistence broken?)", r))
			}
			if diskBest.Wall == 0 || b.Stats.Wall < diskBest.Wall {
				diskBest = b.Stats
			}
		}
		dm := toMeasure(diskBest, par)
		dm.CacheHitRate = float64(diskBest.CacheHits) / float64(diskBest.CacheHits+diskBest.CacheMisses)
		rep.DiskWarm = &dm
		st := tiered.Stats()
		rep.CacheStats = &st
		tiered.PublishMetrics(sink.Metrics)
		tiered.Close()
	} else if c, ok := cache.(*driver.Cache); ok {
		cs := c.Stats()
		rep.CacheStats = &store.Stats{L1: cs, L1HitRate: cs.HitRate()}
	}

	if *corpusSpec != "" {
		spec, err := corpus.ParseSpec(*corpusSpec)
		if err != nil {
			fail(err)
		}
		cunits, err := corpus.Generate(spec)
		if err != nil {
			fail(err)
		}
		var cwork []driver.Unit
		for _, rt := range corpus.Routines(cunits) {
			cwork = append(cwork, driver.Unit{Name: rt.Name, Routine: rt})
		}
		cm := measureCold(cwork, opts, sink, par, *reps)
		rep.Corpus = &cm
		rep.CorpusSpec = spec.String()
		rep.CorpusRoutines = len(cwork)
	}

	if rep.Parallel.WallMs > 0 {
		rep.Speedup = rep.Sequential.WallMs / rep.Parallel.WallMs
	}
	if rep.WarmCache.WallMs > 0 {
		rep.CacheSpeedup = rep.Parallel.WallMs / rep.WarmCache.WallMs
	}

	text, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	text = append(text, '\n')
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := sink.Trace.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *metrics {
		if _, err := sink.Metrics.WriteTo(os.Stderr); err != nil {
			fail(err)
		}
	}
	if *out == "-" {
		os.Stdout.Write(text)
		return
	}
	if err := os.WriteFile(*out, text, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("driverbench: %d routines, -j1 %.1fms, -j%d(eff %d) %.1fms (%.2fx), warm cache %.1fms (%.0f%% hits) -> %s\n",
		rep.Routines, rep.Sequential.WallMs, rep.Parallel.JobsRequested, rep.Parallel.JobsEffective,
		rep.Parallel.WallMs, rep.Speedup, rep.WarmCache.WallMs, 100*rep.WarmCache.CacheHitRate, *out)
	if rep.Corpus != nil {
		fmt.Printf("driverbench: corpus %s: %d routines, %.1fms (%.0f routines/sec)\n",
			rep.CorpusSpec, rep.CorpusRoutines, rep.Corpus.WallMs, rep.Corpus.RoutinesPerSec)
	}
}

// measureCold runs the batch with a fresh cacheless engine reps times
// and keeps the best wall time.
func measureCold(units []driver.Unit, opts core.Options, sink *telemetry.Sink, jobs, reps int) runMeasure {
	best := driver.Stats{}
	for r := 0; r < reps; r++ {
		b := driver.New(driver.Config{Options: opts, Workers: jobs, Telemetry: sink}).Run(context.Background(), units)
		if err := b.FirstErr(); err != nil {
			fail(err)
		}
		if best.Wall == 0 || b.Stats.Wall < best.Wall {
			best = b.Stats
		}
	}
	return toMeasure(best, jobs)
}

func toMeasure(st driver.Stats, requested int) runMeasure {
	wallMs := float64(st.Wall.Microseconds()) / 1000
	rps := 0.0
	if st.Wall > 0 {
		rps = float64(st.Routines) / st.Wall.Seconds()
	}
	return runMeasure{
		JobsRequested:  requested,
		JobsEffective:  st.Workers,
		WallMs:         wallMs,
		CPUMs:          float64(st.CPU.Microseconds()) / 1000,
		RoutinesPerSec: rps,
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "driverbench:", err)
	os.Exit(1)
}
