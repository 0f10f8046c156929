package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/machines"
	"repro/internal/remat"
	"repro/internal/ssa"
	"repro/internal/target"
	"repro/internal/verify"
)

// compileCorpus is a compile workload after set-up: the corpus as
// programs and as driver units, and the warm-up batch, whose results
// are the reference every later allocation must reproduce.
type compileCorpus struct {
	programs [][]*iloc.Routine // per corpus unit: main, then callees
	units    []driver.Unit
	ref      *driver.Batch
	generate time.Duration // corpus generation alone
}

// setupCompile generates the corpus and runs one untimed batch.
func setupCompile(ctx context.Context, spec corpus.Spec, opts core.Options, workers int) (*compileCorpus, error) {
	start := time.Now()
	generated, err := corpus.Generate(spec)
	if err != nil {
		return nil, err
	}
	c := &compileCorpus{generate: time.Since(start)}
	for _, u := range generated {
		c.programs = append(c.programs, u.Routines)
		for _, rt := range u.Routines {
			c.units = append(c.units, driver.Unit{Name: u.Name + "/" + rt.Name, Routine: rt})
		}
	}
	c.ref = driver.New(driver.Config{Options: opts, Workers: workers}).Run(ctx, c.units)
	return c, nil
}

// offsets returns the index in units of each program's main routine.
func (c *compileCorpus) offsets() []int {
	first := make([]int, len(c.programs))
	for p, k := 0, 0; p < len(c.programs); p++ {
		first[p] = k
		k += len(c.programs[p])
	}
	return first
}

// reference checks the warm-up batch: every routine must pass
// verify.Check against its input, and every program must behave in the
// interpreter exactly as its unallocated input does. It returns each
// routine's printed code, each routine's failure (nil when correct),
// and the code quality of the corpus.
func (c *compileCorpus) reference(m *target.Machine, workers int) (text []string, bad []error, q quality) {
	text = make([]string, len(c.units))
	bad = make([]error, len(c.units))
	first := c.offsets()
	var mu sync.Mutex
	parallel(len(c.programs), workers, func(p int) {
		prog, k := c.programs[p], first[p]
		alloc := make([]*iloc.Routine, len(prog))
		var err error
		for j, rt := range prog {
			r := c.ref.Results[k+j]
			if r.Err != nil {
				err = r.Err
				break
			}
			alloc[j] = r.Result.Routine
			text[k+j] = iloc.Print(r.Result.Routine)
			if verr := verify.Check(rt, r.Result.Routine, m, verify.Options{Differential: true}); verr != nil {
				err = fmt.Errorf("%s: %w", rt.Name, verr)
				break
			}
		}
		var pq quality
		if err == nil {
			err = pq.checkProgram(prog, alloc, m)
		}
		if err != nil {
			for j := range prog {
				bad[k+j] = err
			}
			return
		}
		mu.Lock()
		q.add(pq)
		mu.Unlock()
	})
	return text, bad, q
}

// loopStats is what a closed loop of batches measured.
type loopStats struct {
	wall      time.Duration // sum of batch walls
	busy, cap time.Duration // worker time spent allocating, and available
	rates     []float64     // per batch, routines per second of batch wall
	latency   []float64     // per routine in batch order, ms; +Inf for a failure
}

// closedLoop allocates the corpus as one driver batch after another,
// each on a fresh cacheless engine, until d of batch wall time has
// accumulated. Every result must match the reference byte for byte;
// the comparison runs between batches, outside the timed wall.
func (c *compileCorpus) closedLoop(ctx context.Context, opts core.Options, workers int, d time.Duration,
	text []string, bad []error, o *outcome) loopStats {
	var st loopStats
	for st.wall < d {
		b := driver.New(driver.Config{Options: opts, Workers: workers}).Run(ctx, c.units)
		st.wall += b.Stats.Wall
		st.rates = append(st.rates, float64(len(c.units))/b.Stats.Wall.Seconds())
		st.cap += b.Stats.Wall * time.Duration(b.Stats.Workers)
		for _, w := range b.Stats.PerWorker {
			st.busy += w.Busy
		}
		for i, r := range b.Results {
			o.attempted++
			err := r.Err
			if err == nil {
				err = bad[i]
			}
			if err == nil && iloc.Print(r.Result.Routine) != text[i] {
				err = fmt.Errorf("allocation differs from the reference")
			}
			if err != nil {
				o.fail("%s: %v", r.Name, err)
				st.latency = append(st.latency, math.Inf(1))
				continue
			}
			st.latency = append(st.latency, ms(r.Wall))
		}
	}
	return st
}

// runCompile runs compile-light or compile-spill.
func runCompile(ctx context.Context, w workload, e env) (*outcome, error) {
	m, err := machines.Lookup(w.machine)
	if err != nil {
		return nil, err
	}
	spec, err := corpus.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	spec.Seed += e.seed
	// The CLI's defaults: the paper's allocator, verifier off.
	opts := core.Options{Machine: m, Strategy: "remat"}

	reps := setupReps
	if e.traced {
		reps = 1
	}
	setups := make([]float64, reps)
	var c *compileCorpus
	for i := range setups {
		start := time.Now()
		if c, err = setupCompile(ctx, spec, opts, e.workers); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	text, bad, q := c.reference(m, e.workers)
	fmt.Fprintf(e.log, "  corpus %s: %d programs, %d routines on %s, %d workers\n",
		spec, len(c.programs), len(c.units), m.Name, e.workers)

	o := newOutcome()
	if !e.traced {
		rss := startRSS(0)
		st := c.closedLoop(ctx, opts, e.workers, e.seconds, text, bad, o)
		if o.values["rss_mb"], err = rss.median(); err != nil {
			return nil, err
		}
		o.values["setup_s"] = median(setups)
		o.values["routines_per_s"] = slices.Max(st.rates)
		o.values["latency_p50_ms"] = median(fastestRepeats(st.latency, len(c.units)))
		o.values["cycles_ratio"] = q.cyclesRatio()
		o.values["code_ratio"] = q.codeRatio()
		fmt.Fprintf(e.log, "  %d batches, %d routine allocations in %.3fs of batch wall\n",
			len(st.rates), len(st.latency), st.wall.Seconds())
		return o, nil
	}

	// Traced: half the time untraced through the driver, half traced
	// with direct core.Allocate calls, then the replays.
	st := c.closedLoop(ctx, opts, e.workers, e.seconds/2, text, bad, o)
	rec := newRecorder()
	first := c.tracedLoop(ctx, rec, opts, e.workers, e.seconds/2, text, bad, o)
	replayed := 0
	for i, u := range c.units {
		if first[i] == nil {
			continue
		}
		replayed++
		id := int64(i)
		// Timed only: the reference check already verified this same code.
		rec.time(id, "verify.check", func() { _ = verify.Check(u.Routine, first[i].Routine, m, verify.Options{Differential: true}) })
		if err := replayAnalyses(rec, id, u.Routine); err != nil {
			o.fail("%s: replay: %v", u.Name, err)
		}
	}
	spill, err := c.spillCycles(ctx, first, m, e.workers)
	if err != nil {
		o.fail("spill cycles: %v", err)
	}
	rows := rec.rows()
	v := zeroLayers(e.layers)
	v["corpus.generate_s"] = c.generate.Seconds()
	v["iloc.print_us"] = perCall(rows, "iloc.print")
	v["driver.worker_util"] = ratio(float64(st.busy), float64(st.cap))
	allocLayers(v, rows, first)
	v["core.alloc_bytes"] = allocBytes(ctx, flatten(c.programs), opts)
	for _, name := range []string{"cfg.analyze", "liveness.compute", "ssa.build", "remat.propagate", "verify.check"} {
		v[name+"_us"] = perUnit(rows, name, replayed)
	}
	untraced := summarize(st.latency)
	v["latency_p90_ms"], v["latency_p99_ms"] = untraced.P90, untraced.P99
	v["bench.trace_overhead_pct"] = 100 * (median(rec.durations("core.allocate")) - untraced.P50) / untraced.P50
	v["spill_cycles"] = float64(spill)
	o.values = v
	writeTable(e.log, rows)
	passes := 0.0
	for name, x := range v {
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_us") &&
			name != "core.allocate_us" && name != "core.unattributed_us" {
			passes += x
		}
	}
	fmt.Fprintf(e.log, "core.allocate %.2f us per routine; passes %.2f us + unattributed %.2f us\n",
		v["core.allocate_us"], passes, v["core.unattributed_us"])
	return o, rec.writeTrace(filepath.Join(e.out, w.name+".trace.json"), traceFacts(w, e))
}

// tracedLoop allocates the corpus routine by routine on workers
// goroutines, each call to core.Allocate inside a span with its passes
// as children, until d has passed, checking every result against the
// reference. It returns the first pass's results.
func (c *compileCorpus) tracedLoop(ctx context.Context, rec *recorder, opts core.Options, workers int, d time.Duration,
	text []string, bad []error, o *outcome) []*core.Result {
	first := make([]*core.Result, len(c.units))
	var mu sync.Mutex
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		parallel(len(c.units), workers, func(i int) {
			id := int64(pass*len(c.units) + i)
			res, err := rec.allocate(id, func() (*core.Result, error) { return core.Allocate(ctx, c.units[i].Routine, opts) })
			if err == nil {
				err = bad[i]
			}
			if err == nil {
				var got string
				rec.time(id, "iloc.print", func() { got = iloc.Print(res.Routine) })
				if got != text[i] {
					err = fmt.Errorf("allocation differs from the reference")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			o.attempted++
			if err != nil {
				o.fail("%s: %v", c.units[i].Name, err)
				return
			}
			if pass == 0 {
				first[i] = res
			}
		})
	}
	return first
}

// spillCycles sums Table 1's measure over the corpus programs whose
// allocations are all in res: their cycles as allocated for m, less
// their cycles as allocated for the huge machine.
func (c *compileCorpus) spillCycles(ctx context.Context, res []*core.Result, m *target.Machine, workers int) (int64, error) {
	huge := core.Options{Machine: target.Huge(), Strategy: "remat"}
	var (
		total    int64
		firstErr error
		mu       sync.Mutex
	)
	first := c.offsets()
	parallel(len(c.programs), workers, func(p int) {
		prog := c.programs[p]
		alloc := make([]*iloc.Routine, len(prog))
		for j := range prog {
			if res[first[p]+j] == nil {
				return
			}
			alloc[j] = res[first[p]+j].Routine
		}
		h, err := allocateProgram(ctx, prog, huge)
		var s int64
		if err == nil {
			s, err = spillCycles(alloc, h, m, runPlain)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = err
			return
		}
		total += s
	})
	return total, firstErr
}

// replayAnalyses runs the analyses core.Allocate's first passes run, on
// a clone of the input, each call inside its own span: cfg.Build,
// SplitCriticalEdges and Analyze together, then liveness, SSA
// construction and tag propagation per register class in renumber's
// order.
func replayAnalyses(rec *recorder, id int64, input *iloc.Routine) error {
	rt := input.Clone()
	var (
		tree *dom.Tree
		err  error
	)
	rec.time(id, "cfg.analyze", func() {
		if err = cfg.Build(rt); err != nil {
			return
		}
		if _, err = cfg.SplitCriticalEdges(rt); err != nil {
			return
		}
		tree, _, err = cfg.Analyze(rt)
	})
	if err != nil {
		return err
	}
	var lives [iloc.NumClasses]*liveness.Info
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		rec.time(id, "liveness.compute", func() { lives[cl] = liveness.Compute(rt, cl) })
	}
	var graphs [iloc.NumClasses]*ssa.Graph
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		rec.time(id, "ssa.build", func() { graphs[cl], err = ssa.Build(rt, cl, tree, lives[cl]) })
		if err != nil {
			return err
		}
	}
	for cl := iloc.Class(0); cl < iloc.NumClasses; cl++ {
		rec.time(id, "remat.propagate", func() { remat.Propagate(graphs[cl]) })
	}
	return nil
}

// allocBytes is the Go heap allocated per core.Allocate call, measured
// on one goroutine over up to 500 routines while nothing else runs.
func allocBytes(ctx context.Context, routines []*iloc.Routine, opts core.Options) float64 {
	n := min(len(routines), 500)
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rt := range routines[:n] {
		_, _ = core.Allocate(ctx, rt, opts)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// parallel calls f(0..n-1) on workers goroutines and waits for them.
func parallel(n, workers int, f func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
