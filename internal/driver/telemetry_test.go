package driver

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// TestBatchTraceCoversEveryUnit: a traced batch records one unit span
// per input routine (on a worker trace thread), a batch span, nested
// allocator pass spans, and worker thread-name metadata.
func TestBatchTraceCoversEveryUnit(t *testing.T) {
	units := testUnits(t)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	eng := New(Config{
		Options:   core.Options{Machine: target.WithRegs(6), Strategy: "remat"},
		Workers:   3,
		Telemetry: &telemetry.Sink{Metrics: reg, Trace: tr},
	})
	b := eng.Run(context.Background(), units)
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}

	unitSpans := map[string]telemetry.Event{}
	var batches, passes, threadNames int
	for _, e := range tr.Events() {
		switch {
		case e.Cat == telemetry.CatUnit && e.Phase == telemetry.PhaseComplete:
			unitSpans[e.Name] = e
		case e.Cat == telemetry.CatDriver:
			batches++
		case e.Cat == telemetry.CatPass:
			passes++
		case e.Phase == telemetry.PhaseMetadata:
			threadNames++
		}
	}
	for _, u := range units {
		sp, ok := unitSpans[u.Name]
		if !ok {
			t.Fatalf("no unit span for %q", u.Name)
		}
		if sp.TID < 1 || sp.TID > 3 {
			t.Fatalf("unit %q on tid %d, want a worker tid in [1,3]", u.Name, sp.TID)
		}
	}
	if batches != 1 {
		t.Fatalf("batch spans = %d, want 1", batches)
	}
	if passes == 0 {
		t.Fatal("no allocator pass spans nested in the batch trace")
	}
	if threadNames != 3 {
		t.Fatalf("thread-name metadata events = %d, want 3", threadNames)
	}

	// Metrics side: unit counter, queue instrumentation.
	if got := reg.Counter("driver.units").Value(); got != int64(len(units)) {
		t.Fatalf("driver.units = %d, want %d", got, len(units))
	}
	if got := reg.Histogram("driver.queue.wait").Snapshot().Count; got != int64(len(units)) {
		t.Fatalf("driver.queue.wait count = %d, want %d", got, len(units))
	}
	if got := reg.Gauge("driver.queue.depth").Value(); got != 0 {
		t.Fatalf("driver.queue.depth = %d after batch, want 0", got)
	}
	if got := reg.Counter("core.allocations").Value(); got != int64(len(units)) {
		t.Fatalf("core.allocations = %d, want %d", got, len(units))
	}
}

// TestCacheTelemetry: warm-cache batches record hit instants and hit
// counters; the unit spans carry cache_hit args.
func TestCacheTelemetry(t *testing.T) {
	units := testUnits(t)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	eng := New(Config{
		Options:   core.Options{Machine: target.WithRegs(6), Strategy: "remat"},
		Workers:   2,
		Cache:     NewCache(0),
		Telemetry: &telemetry.Sink{Metrics: reg, Trace: tr},
	})
	if err := eng.Run(context.Background(), units).FirstErr(); err != nil {
		t.Fatal(err)
	}
	warm := eng.Run(context.Background(), units)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != len(units) {
		t.Fatalf("warm run hits = %d, want %d", warm.Stats.CacheHits, len(units))
	}
	if got := reg.Counter("driver.cache.hits").Value(); got != int64(len(units)) {
		t.Fatalf("driver.cache.hits = %d, want %d", got, len(units))
	}
	if got := reg.Counter("driver.cache.misses").Value(); got != int64(len(units)) {
		t.Fatalf("driver.cache.misses = %d, want %d", got, len(units))
	}
	var hitInstants, hitArgs int
	for _, e := range tr.Events() {
		if e.Cat == telemetry.CatCache && e.Name == "hit" {
			hitInstants++
		}
		if e.Cat == telemetry.CatUnit {
			for _, a := range e.Args {
				if a.Key == "cache_hit" && a.Val == 1 {
					hitArgs++
				}
			}
		}
	}
	if hitInstants != len(units) {
		t.Fatalf("cache hit instants = %d, want %d", hitInstants, len(units))
	}
	if hitArgs != len(units) {
		t.Fatalf("unit spans with cache_hit arg = %d, want %d", hitArgs, len(units))
	}

	// Telemetry must not split cache keys: an engine with a different
	// sink (or none) sharing the cache still hits.
	eng2 := New(Config{
		Options: core.Options{Machine: target.WithRegs(6), Strategy: "remat"},
		Cache:   eng.Cache(),
	})
	b2 := eng2.Run(context.Background(), units)
	if err := b2.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if b2.Stats.CacheHits != len(units) {
		t.Fatalf("sink-less engine hits = %d, want %d (telemetry leaked into the cache key)",
			b2.Stats.CacheHits, len(units))
	}
}
