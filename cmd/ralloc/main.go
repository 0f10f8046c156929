// Command ralloc allocates the registers of one or more ILOC routines
// and prints the result.
//
//	ralloc [-strategy spec] [-machine name] [-regs N] [-j N] [-cache]
//	       [-c] [-stats] [-verify] [-strict] [-trace out.json] [-metrics]
//	       [-list-strategies] [-list-machines] [file.iloc ...]
//
// With no file it reads standard input; "-" names standard input
// explicitly.
//
// -strategy selects a registered allocation strategy by spec (default
// "remat", the paper's allocator): a name from -list-strategies,
// optionally with parameters after ":" ("remat:split=all-loops,no-bias"
// for §6's splitting schemes, the spill metric and the ablation
// switches). An unknown name fails listing the valid ones.
// -list-strategies prints the registered strategies, one per line, and
// exits.
//
// -machine selects a target machine from the zoo by name (see
// -list-machines), or a "regs=N" sweep point; it overrides -regs. An
// unknown name fails listing the registered ones. Several files form a module: they are allocated
// concurrently by the batch driver (-j bounds the worker pool,
// defaulting to the number of CPUs) and printed in input order, so the
// output is byte-identical whatever the parallelism. -cache enables the
// content-addressed result cache, making duplicate inputs free. -c
// emits the instrumented C translation (Figure 4 style) instead of
// ILOC; -stats prints per-phase times and spill counts per routine plus
// the driver's batch summary.
//
// -verify runs the independent post-allocation checker on every result;
// a routine whose allocation fails it degrades to the spill-everywhere
// fallback, with a warning on standard error. -strict implies -verify
// and additionally disables degradation: any allocator failure —
// non-convergence, a contained panic, a verifier rejection — exits
// nonzero instead of emitting fallback code.
//
// -trace out.json records every pipeline pass, allocator iteration,
// driver unit, cache lookup, verification rule and degradation as a
// Chrome trace_event file, loadable in chrome://tracing or Perfetto
// (see docs/ALGORITHMS.md, "Telemetry & tracing"). -metrics dumps the
// run's flat metrics registry (counters, gauges, timing histograms) to
// standard error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/ctrans"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/telemetry"
)

func main() {
	strategy := flag.String("strategy", "remat", "allocation strategy spec, e.g. chaitin or remat:split=all-loops (see -list-strategies)")
	listStrategies := flag.Bool("list-strategies", false, "list the registered allocation strategies and exit")
	machine := flag.String("machine", "", "target machine from the zoo (see -list-machines), or regs=N; overrides -regs")
	listMachines := flag.Bool("list-machines", false, "list the registered target machines and exit")
	regs := flag.Int("regs", 16, "registers per class (16 = the paper's standard machine)")
	jobs := flag.Int("j", 0, "worker pool size for multi-file batches (0 = number of CPUs)")
	cache := flag.Bool("cache", false, "reuse allocations of identical routines (content-addressed cache)")
	cacheDir := flag.String("cache-dir", "", "persist the result cache on disk under this directory, shared across runs (implies -cache)")
	emitC := flag.Bool("c", false, "emit instrumented C instead of ILOC")
	stats := flag.Bool("stats", false, "print allocation statistics")
	verify := flag.Bool("verify", false, "run the post-allocation verifier on every result")
	strict := flag.Bool("strict", false, "imply -verify and fail instead of degrading to spill-everywhere")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file covering the whole run")
	metrics := flag.Bool("metrics", false, "dump the telemetry metrics registry to stderr after the run")
	flag.Parse()

	if *listStrategies {
		for _, s := range core.Strategies() {
			fmt.Printf("%-18s %s\n", s.Name(), s.Description())
		}
		return
	}
	if *listMachines {
		for _, e := range machines.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
		}
		return
	}

	opts := core.Options{Machine: target.WithRegs(*regs)}
	if *machine != "" {
		// Resolve up front so a typo fails before any input is read,
		// with the error naming every registered machine.
		m, err := machines.Lookup(*machine)
		if err != nil {
			fail(err)
		}
		opts.Machine = m
	}
	opts.Verify = *verify || *strict
	opts.DisableDegradation = *strict
	// Validate up front so a typo fails before any input is read, with
	// the error naming every registered strategy.
	if _, err := core.LookupStrategy(*strategy); err != nil {
		fail(err)
	}
	opts.Strategy = *strategy

	// Every positional argument is an input file; none means stdin.
	paths := flag.Args()
	if len(paths) == 0 {
		paths = []string{"-"}
	}
	units := make([]driver.Unit, len(paths))
	for i, path := range paths {
		src, err := readInput(path)
		if err != nil {
			fail(err)
		}
		rt, err := iloc.Parse(string(src))
		if err != nil {
			fail(fmt.Errorf("%s: %w", displayName(path), err))
		}
		units[i] = driver.Unit{Name: displayName(path), Routine: rt}
	}

	cfg := driver.Config{Options: opts, Workers: *jobs}
	var tiered *store.Tiered
	switch {
	case *cacheDir != "":
		var err error
		// The CLI keeps its historical unbounded L1 (0): a one-shot
		// process cannot outgrow it the way a daemon can.
		tiered, err = store.Open(*cacheDir, 0)
		if err != nil {
			fail(err)
		}
		cfg.Cache = tiered
	case *cache:
		cfg.Cache = driver.NewCache(0)
	}
	var sink *telemetry.Sink
	if *tracePath != "" || *metrics {
		sink = &telemetry.Sink{}
		if *tracePath != "" {
			sink.Trace = telemetry.NewTracer()
		}
		if *metrics {
			sink.Metrics = telemetry.NewRegistry()
		}
		cfg.Telemetry = sink
	}
	// Interrupting the process cancels the batch: finished units stay
	// finished, running and unstarted ones fail with the context error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	batch := driver.New(cfg).Run(ctx, units)
	// Land write-behind disk entries before the process exits; the next
	// run on the same -cache-dir then starts warm.
	tiered.Close()
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
	if err := batch.FirstErr(); err != nil {
		fail(err)
	}
	for _, r := range batch.Results {
		if r.Result.Degraded {
			fmt.Fprintf(os.Stderr, "ralloc: warning: %s degraded to spill-everywhere: %s\n",
				r.Name, r.Result.DegradeReason)
		}
	}

	for _, r := range batch.Results {
		res := r.Result
		if *emitC {
			c, err := ctrans.Translate(res.Routine)
			if err != nil {
				fail(fmt.Errorf("%s: %w", r.Name, err))
			}
			fmt.Print(c)
		} else {
			fmt.Print(iloc.Print(res.Routine))
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "%s: strategy=%s machine=%s iterations=%d spilled=%d (remat %d) frame=%d words\n",
				r.Name, res.Strategy, res.Machine.Name, len(res.Iterations), res.SpilledRanges, res.RematSpills, res.Routine.FrameWords)
			phase := map[string]time.Duration{}
			var total time.Duration
			for _, it := range res.Iterations {
				for _, ps := range it.Passes {
					phase[core.PassPhase(ps.Name)] += ps.Time
					total += ps.Time
				}
			}
			fmt.Fprintf(os.Stderr, "phases: cfa=%v renum=%v build=%v costs=%v color=%v spill=%v total=%v\n",
				phase["cfa"], phase["renum"], phase["build"], phase["costs"], phase["color"], phase["spill"], total)
			fmt.Fprint(os.Stderr, core.FormatStats(res))
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, batch.Stats.Format())
		switch {
		case tiered != nil:
			ss := tiered.Stats()
			fmt.Fprintf(os.Stderr, "cache: l1 %d entries, %d hits, %d misses (%.0f%% hit rate); l2 %d entries, %d hits, %d misses, %d quarantined\n",
				ss.L1.Entries, ss.L1.Hits, ss.L1.Misses, 100*ss.L1HitRate,
				ss.L2.Entries, ss.L2.Hits, ss.L2.Misses, ss.Quarantined)
		case cfg.Cache != nil:
			cs := cfg.Cache.(*driver.Cache).Stats()
			fmt.Fprintf(os.Stderr, "cache: %d entries, %d hits, %d misses, %d evictions (%.0f%% hit rate)\n",
				cs.Entries, cs.Hits, cs.Misses, cs.Evictions, 100*cs.HitRate())
		}
	}
}

func displayName(path string) string {
	if path == "-" {
		return "<stdin>"
	}
	return path
}

func readInput(path string) ([]byte, error) {
	if path == "" || path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ralloc:", err)
	os.Exit(1)
}
