package regalloc

// The benchmark harness regenerates every table and figure of the paper
// (DESIGN.md §5 maps each to its benchmark):
//
//	BenchmarkTable1            the full spill-cost experiment
//	BenchmarkTable1Row/...     per-kernel allocate+measure, both modes
//	BenchmarkTable2/...        allocation time per routine and mode (the
//	                           quantity Table 2 reports), per-phase
//	                           breakdown as custom metrics
//	BenchmarkFigure1/3/4       the figure generators
//	BenchmarkSplitting/...     the §6 splitting-scheme study
//	BenchmarkAblation/...      design-choice ablations (conservative
//	                           coalescing, biased coloring, lookahead)
//	                           reporting spill cycles as a metric
//	BenchmarkSpillMetric/...   spill-candidate metric comparison
//	BenchmarkAllocateSuite/... allocator throughput, both modes (§5.4)
//	BenchmarkInterp            raw interpreter throughput
//
// Quality metrics (spill cycles) are attached with b.ReportMetric, so
// `go test -bench .` shows both compile time and code quality.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/suite"
	"repro/internal/target"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Table1Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable1Row allocates and measures one kernel in one mode —
// one cell of Table 1.
func BenchmarkTable1Row(b *testing.B) {
	m := target.WithRegs(6)
	for _, name := range []string{"fehl", "decomp", "bilan", "inithx", "sgemm", "tomcatv"} {
		k := suite.ByName(name)
		for _, mode := range []string{"chaitin", "remat"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: mode})
					if err != nil {
						b.Fatal(err)
					}
					out, err := k.Execute(res.Routine)
					if err != nil {
						b.Fatal(err)
					}
					cycles = out.Cycles(2, 1)
				}
				b.ReportMetric(float64(cycles), "spillcycles")
			})
		}
	}
}

// BenchmarkTable2 times one allocation per iteration — the quantity the
// paper's Table 2 reports — for its three routines in both modes, and
// attaches the per-phase split of the last run as metrics.
func BenchmarkTable2(b *testing.B) {
	m := target.Standard()
	for _, name := range experiments.Table2Routines {
		k := suite.ByName(name)
		for _, mode := range []string{"chaitin", "remat"} {
			label := "old"
			if mode == "remat" {
				label = "new"
			}
			b.Run(name+"/"+label, func(b *testing.B) {
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: mode})
					if err != nil {
						b.Fatal(err)
					}
				}
				t := res.TotalTimes()
				b.ReportMetric(float64(t.Renumber.Microseconds()), "renum-µs")
				b.ReportMetric(float64(t.Build.Microseconds()), "build-µs")
				b.ReportMetric(float64(t.Color.Microseconds()), "color-µs")
			})
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if r.RematCycles >= r.ChaitinCycles {
			b.Fatal("figure 1 shape lost")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FormatFigure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitting runs one §6 scheme over one kernel per iteration.
func BenchmarkSplitting(b *testing.B) {
	m := target.WithRegs(6)
	k := suite.ByName("tomcatv")
	for _, s := range experiments.SplittingSchemes {
		b.Run(s.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: "remat:split=" + s.String()})
				if err != nil {
					b.Fatal(err)
				}
				out, err := k.Execute(res.Routine)
				if err != nil {
					b.Fatal(err)
				}
				cycles = out.Cycles(2, 1)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblation disables one §3.4/§4 mechanism at a time and reports
// the resulting code quality, justifying the design choices DESIGN.md
// calls out: conservative coalescing and biased coloring remove the
// unproductive splits. The ablation runs with splitting at all φ-nodes
// (scheme 4) so there are many splits for the mechanisms to clean up; in
// the minimal-split configuration they act as redundant safety nets and
// barely move the number.
func BenchmarkAblation(b *testing.B) {
	m := target.WithRegs(6)
	configs := []struct {
		name     string
		strategy string
	}{
		{"full", "remat:split=all-phis"},
		{"no-conservative-coalescing", "remat:split=all-phis,no-coalesce"},
		{"no-biased-coloring", "remat:split=all-phis,no-bias"},
		{"no-lookahead", "remat:split=all-phis,no-lookahead"},
		{"no-coalescing-no-bias", "remat:split=all-phis,no-coalesce,no-bias"},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, k := range suite.All() {
					res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: cfg.strategy})
					if err != nil {
						b.Fatal(err)
					}
					out, err := k.Execute(res.Routine)
					if err != nil {
						b.Fatal(err)
					}
					total += out.Cycles(2, 1)
				}
			}
			b.ReportMetric(float64(total), "suitecycles")
		})
	}
}

// BenchmarkDriverSuite allocates the whole suite through the batch
// driver at -j 1 and -j NumCPU, cold and against a warm result cache.
// `make bench` runs it once; bench/ measures driver throughput on
// generated corpora.
func BenchmarkDriverSuite(b *testing.B) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	var units []driver.Unit
	for _, k := range suite.All() {
		units = append(units, driver.Unit{Name: k.Name, Routine: k.Routine()})
	}
	for _, cfg := range []struct {
		name  string
		jobs  int
		cache bool
	}{
		{"j1", 1, false},
		{"jN", runtime.NumCPU(), false},
		{"jN-warm-cache", runtime.NumCPU(), true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cache *driver.Cache
			if cfg.cache {
				cache = driver.NewCache(0)
				eng := driver.New(driver.Config{Options: opts, Workers: cfg.jobs, Cache: cache})
				if err := eng.Run(context.Background(), units).FirstErr(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var st driver.Stats
			for i := 0; i < b.N; i++ {
				batch := driver.New(driver.Config{Options: opts, Workers: cfg.jobs, Cache: cache}).Run(context.Background(), units)
				if err := batch.FirstErr(); err != nil {
					b.Fatal(err)
				}
				st = batch.Stats
			}
			b.ReportMetric(float64(st.Routines)/st.Wall.Seconds(), "routines/sec")
			if cfg.cache {
				b.ReportMetric(100*float64(st.CacheHits)/float64(st.Routines), "hit%")
			}
		})
	}
}

// BenchmarkInterp measures raw interpreter throughput on the largest
// kernel.
func BenchmarkInterp(b *testing.B) {
	k := suite.ByName("twldrv")
	rt := k.Routine()
	var steps int64
	for i := 0; i < b.N; i++ {
		out, err := k.Execute(rt)
		if err != nil {
			b.Fatal(err)
		}
		steps = out.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkAllocateSuite measures allocator throughput over the whole
// suite (both modes) — the compile-time cost the paper's §5.4 discusses.
func BenchmarkAllocateSuite(b *testing.B) {
	for _, mode := range []string{"chaitin", "remat"} {
		b.Run(mode, func(b *testing.B) {
			m := target.Standard()
			for i := 0; i < b.N; i++ {
				for _, k := range suite.All() {
					if _, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: mode}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSpillMetric sweeps the spill-candidate metrics over the whole
// suite (the paper: "the metric for picking spill candidates is
// critical") and reports total spill cycles as the quality metric.
func BenchmarkSpillMetric(b *testing.B) {
	m := target.WithRegs(6)
	for _, metric := range []core.SpillMetric{
		core.MetricCostOverDegree, core.MetricCostOverDegreeSquared, core.MetricCost,
	} {
		b.Run(metric.String(), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, k := range suite.All() {
					res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: "remat:metric=" + metric.String()})
					if err != nil {
						b.Fatal(err)
					}
					out, err := k.Execute(res.Routine)
					if err != nil {
						b.Fatal(err)
					}
					total += out.Cycles(2, 1)
				}
			}
			b.ReportMetric(float64(total), "suitecycles")
		})
	}
}
