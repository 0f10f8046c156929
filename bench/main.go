// Command bench is the repository's benchmark. It drives the allocator
// and the serving stack through four named workloads, prints every
// end-to-end metric by name with its unit, and fails when any output is
// wrong. A traced run prints per-layer metrics and a span table instead.
// BENCHMARK.json declares the metrics; README.md explains the workloads.
//
// Run it from the repository root through bench/run.sh, which builds
// the harness with its caches kept under .bench_build/:
//
//	bash bench/run.sh -workload compile-light -seed 0 -seconds 20 -trace 0
//	bash bench/run.sh                  # every workload once
//	bash bench/run.sh -trace 1         # every workload, traced
//	bash bench/run.sh -runs 5          # five seeds per workload, with spreads
//
// A single-workload run ends its standard output with one JSON line:
// correct, attempted, failed and metrics. The exit code is nonzero when
// any output was wrong or the run could not complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set and loop. README.md records why each
// exists and which layers it stresses.
type workload struct {
	name    string
	spec    string // corpus spec; the run's seed is added to its seed
	machine string // zoo machine the allocator targets
	// rate is the open-loop request rate of a serve workload; zero
	// marks a compile workload.
	rate float64
	// proxy routes a serve workload through rallocproxy; cold gives
	// every request a never-seen unit and the daemon a fresh disk cache.
	proxy, cold bool
}

var workloads = []workload{
	{name: "compile-light", spec: "count=1000,seed=7", machine: "x86-64"},
	{name: "compile-spill", spec: "count=1000,seed=11,depth=3,pressure=8", machine: "embedded-8"},
	{name: "serve-warm", spec: "count=256,seed=3", machine: "x86-64", rate: 500, proxy: true},
	{name: "serve-cold", spec: "count=12000,seed=21", machine: "x86-64", rate: 250, cold: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one run needs beyond its workload.
type env struct {
	root    string // repository root
	seed    int64
	seconds time.Duration
	traced  bool
	// workers is nproc: the compile worker pool and the number of
	// serve connections.
	workers int
	tmp     string       // scratch directory, removed when the run ends
	out     string       // where a traced run writes <workload>.trace.json
	log     io.Writer    // human-readable report
	layers  []metricDecl // the per-layer metrics a traced run prints
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result shapes the outcome as the run's result line: correct only when
// no operation failed.
func (o *outcome) result(metrics map[string]metricValue) *result {
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload to run (empty: every workload, each in its own process)")
	seed := flag.Int64("seed", 0, "added to every workload's corpus seed")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics and a span table")
	runs := flag.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1, with medians and spreads")
	flag.Parse()

	if *name == "" || *runs > 1 {
		os.Exit(runAll(*name, *seed, *seconds, *trace, *runs))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	decls, err := loadDecls(".")
	if err != nil {
		fatal(err)
	}
	res, err := runOne(w, env{
		root:    ".",
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		out:     filepath.Join("bench", "out"),
		log:     os.Stdout,
	}, decls)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	os.Exit(res.exitCode())
}

// runOne runs one workload and shapes its result line.
func runOne(w workload, e env, decls *benchmarkFile) (*result, error) {
	tmp, err := os.MkdirTemp("", "bench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp
	e.layers = decls.PerLayer
	fmt.Fprintf(e.log, "bench: workload %s seed %d seconds %.0f traced %v nproc %d GOMAXPROCS %d\n",
		w.name, e.seed, e.seconds.Seconds(), e.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	run := runCompile
	if w.rate > 0 {
		run = runServe
	}
	o, err := run(context.Background(), w, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	metrics, err := emit(decls.decls(e.traced), o.values)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(e.log, "  %-26s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(e.log, "  attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(e.log, "  FAIL %s\n", p)
	}
	return o.result(metrics), nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
