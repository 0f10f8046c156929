package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/iloc"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// traceOf allocates rt with a fresh tracer+registry and returns the
// recorded events plus the result.
func traceOf(t *testing.T, src string, opts Options) ([]telemetry.Event, *Result, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	opts.Telemetry = &telemetry.Sink{Metrics: reg, Trace: tr}
	res, err := Allocate(context.Background(), iloc.MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Events(), res, reg
}

// signature reduces an event to its deterministic parts — everything
// except the timestamps.
func signature(e telemetry.Event) string {
	s := fmt.Sprintf("%s/%s/%c/tid%d", e.Cat, e.Name, e.Phase, e.TID)
	for _, a := range e.Args {
		if a.Str != "" {
			s += fmt.Sprintf(" %s=%s", a.Key, a.Str)
		} else {
			s += fmt.Sprintf(" %s=%d", a.Key, a.Val)
		}
	}
	return s
}

// TestTraceDeterminism: two allocations of the same routine under the
// same options record identical event sequences modulo timestamps —
// same events, same order, same args. This is what makes traces
// diffable across runs.
func TestTraceDeterminism(t *testing.T) {
	opts := Options{Machine: target.WithRegs(3), Strategy: "remat", Verify: true}
	ev1, _, _ := traceOf(t, fig1Src, opts)
	ev2, _, _ := traceOf(t, fig1Src, opts)
	if len(ev1) == 0 {
		t.Fatal("no events recorded")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if s1, s2 := signature(ev1[i]), signature(ev2[i]); s1 != s2 {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, s1, s2)
		}
	}
}

// TestTraceCoversPipeline: the trace must contain one pass span per
// executed pipeline pass (matching the Result's own records, which are
// the -stats source of truth), one iteration span per round, one alloc
// span, and — with Verify on — verifier rule spans.
func TestTraceCoversPipeline(t *testing.T) {
	events, res, reg := traceOf(t, fig1Src, Options{Machine: target.WithRegs(3), Strategy: "remat", Verify: true})

	var passes, iters, allocs, verifies []telemetry.Event
	for _, e := range events {
		switch e.Cat {
		case telemetry.CatPass:
			passes = append(passes, e)
		case telemetry.CatIteration:
			iters = append(iters, e)
		case telemetry.CatAlloc:
			allocs = append(allocs, e)
		case telemetry.CatVerify:
			verifies = append(verifies, e)
		}
	}
	var wantPasses []string
	for _, it := range res.Iterations {
		for _, ps := range it.Passes {
			wantPasses = append(wantPasses, ps.Name)
		}
	}
	if len(passes) != len(wantPasses) {
		t.Fatalf("trace has %d pass spans, Result records %d passes", len(passes), len(wantPasses))
	}
	for i, e := range passes {
		if e.Name != wantPasses[i] {
			t.Fatalf("pass span %d = %q, want %q", i, e.Name, wantPasses[i])
		}
	}
	if len(iters) != len(res.Iterations) {
		t.Fatalf("trace has %d iteration spans, want %d", len(iters), len(res.Iterations))
	}
	if len(allocs) != 1 || allocs[0].Name != res.Routine.Name {
		t.Fatalf("alloc spans = %+v, want one named %q", allocs, res.Routine.Name)
	}
	if len(verifies) == 0 {
		t.Fatal("no verifier rule spans despite Options.Verify")
	}

	// The registry tells the same story through metrics.
	if got := reg.Counter("core.allocations").Value(); got != 1 {
		t.Fatalf("core.allocations = %d, want 1", got)
	}
	if got := reg.Counter("core.iterations").Value(); got != int64(len(res.Iterations)) {
		t.Fatalf("core.iterations = %d, want %d", got, len(res.Iterations))
	}
	if got := reg.Histogram("core.pass.build").Snapshot().Count; got != int64(len(res.Iterations)) {
		t.Fatalf("core.pass.build histogram count = %d, want %d", got, len(res.Iterations))
	}
	if got := reg.Counter("verify.checks").Value(); got != 1 {
		t.Fatalf("verify.checks = %d, want 1", got)
	}
}

// TestSpanIsTheTimingSource: PassStat.Time must equal the trace span's
// duration exactly — the span replaced the ad-hoc time.Now pair, so the
// -stats table and the trace cannot disagree.
func TestSpanIsTheTimingSource(t *testing.T) {
	events, res, _ := traceOf(t, fig1Src, Options{Machine: target.WithRegs(3), Strategy: "remat"})
	var spans []telemetry.Event
	for _, e := range events {
		if e.Cat == telemetry.CatPass {
			spans = append(spans, e)
		}
	}
	i := 0
	for _, it := range res.Iterations {
		for _, ps := range it.Passes {
			if spans[i].Dur != ps.Time {
				t.Fatalf("pass %s: span dur %v != PassStat.Time %v", ps.Name, spans[i].Dur, ps.Time)
			}
			i++
		}
	}
}

// TestCoreHookPathZeroAlloc: the exact instrumentation sequence the
// pipeline runner executes per pass — open span, end it with the full
// arg set, observe the pass histogram — allocates nothing when no sink
// is installed.
func TestCoreHookPathZeroAlloc(t *testing.T) {
	var tel *telemetry.Sink
	ps := &PassStat{Name: "build", Nodes: 10, Edges: 20, Coalesced: 3, Splits: 1, Spilled: 2, Remat: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tel.StartSpan(telemetry.CatPass, "build")
		_ = endPassSpan(&sp, ps)
		if tel.Enabled() {
			tel.Observe("core.pass.build", ps.Time.Nanoseconds())
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled pipeline hooks allocate %.1f times per run, want 0", allocs)
	}
}

// BenchmarkAllocateTelemetry benchmarks a full core allocation with
// telemetry off and on; the "off" variant's allocs/op is the baseline
// proving the hooks are free when disabled (compare with the telemetry
// package's BenchmarkSpanDisabled for the per-hook view).
func BenchmarkAllocateTelemetry(b *testing.B) {
	rt := iloc.MustParse(fig1Src)
	m := target.WithRegs(3)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: "remat"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		sink := &telemetry.Sink{Metrics: telemetry.NewRegistry(), Trace: telemetry.NewTracer()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: "remat", Telemetry: sink}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
