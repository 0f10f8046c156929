package driver

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// TestCancelAbortsBatchMidFlight is the cancellation regression test: a
// context cancelled while one unit is mid-allocation aborts the batch
// without losing finished work. Units that completed before the cancel
// keep byte-identical results, the in-flight unit surfaces the
// cancellation, unstarted units report ctx.Err() without ever entering
// the allocator, and the batch stats and telemetry counters agree with
// what actually happened.
func TestCancelAbortsBatchMidFlight(t *testing.T) {
	units := testUnits(t)
	if len(units) < 4 {
		t.Fatalf("need >= 4 test units, have %d", len(units))
	}
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}

	// Reference run: the results a cancelled batch must preserve for the
	// units it finished.
	clean := New(Config{Options: opts, Workers: 1}).Run(context.Background(), units)
	if err := clean.FirstErr(); err != nil {
		t.Fatal(err)
	}

	// With one worker the units run strictly in order. The hook stalls
	// the second unit's first pass until the test has cancelled the
	// context, so unit 0 is finished, unit 1 is mid-flight, and units
	// 2..n never start.
	victim := units[1].Name
	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	core.PanicHook = func(routine, pass string) {
		if routine == victim && pass == "cfa" && !once {
			once = true
			close(entered)
			<-release
		}
	}
	defer func() { core.PanicHook = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	reg := telemetry.NewRegistry()
	eng := New(Config{Options: opts, Workers: 1, Telemetry: &telemetry.Sink{Metrics: reg}})
	done := make(chan *Batch, 1)
	go func() { done <- eng.Run(ctx, units) }()

	<-entered
	cancel()
	close(release)
	var b *Batch
	select {
	case b = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return")
	}

	// Unit 0 finished before the cancel: byte-identical to the reference.
	if b.Results[0].Err != nil {
		t.Fatalf("finished unit errored: %v", b.Results[0].Err)
	}
	if iloc.Print(b.Results[0].Result.Routine) != iloc.Print(clean.Results[0].Result.Routine) {
		t.Fatalf("%s: finished result differs from uncancelled run", units[0].Name)
	}

	// Unit 1 was mid-allocation: the allocator's own context check
	// aborted it with the cancellation error, not a degradation.
	if !errors.Is(b.Results[1].Err, context.Canceled) {
		t.Fatalf("in-flight unit error = %v, want context.Canceled", b.Results[1].Err)
	}

	// Units 2..n never started: they report ctx.Err() directly.
	for _, r := range b.Results[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unstarted unit %s error = %v, want context.Canceled", r.Name, r.Err)
		}
		if r.Result != nil {
			t.Fatalf("unstarted unit %s has a result", r.Name)
		}
	}

	// Stats and telemetry must tell the same story: one success, the
	// rest failures, no degradations.
	wantFailed := len(units) - 1
	if b.Stats.Failed != wantFailed || b.Stats.Degraded != 0 || len(b.Stats.Degradations) != 0 {
		t.Fatalf("Stats = %+v, want Failed=%d Degraded=0", b.Stats, wantFailed)
	}
	for name, want := range map[string]int64{
		"driver.units":        int64(len(units)),
		"driver.failures":     int64(wantFailed),
		"driver.degradations": 0,
		"driver.batches":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// A batch run under an already-expired deadline still returns one
// result per unit: every unit either degraded with reason "deadline"
// (started units) or failed with the deadline error (unstarted units) —
// and nothing deadline-shaped may enter the shared result cache.
func TestDeadlineBatchDegradesAndSkipsCache(t *testing.T) {
	k := suite.ByName("sgemm")
	if k == nil {
		t.Fatal("kernel sgemm missing")
	}
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	cache := NewCache(0)
	eng := New(Config{Options: opts, Workers: 1, Cache: cache})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := eng.Run(ctx, []Unit{{Name: "sgemm", Routine: k.Routine()}})
	r := b.Results[0]
	if r.Err != nil {
		t.Fatalf("deadline unit errored instead of degrading: %v", r.Err)
	}
	if !r.Result.Degraded || r.Result.DegradeReason != core.DegradeReasonDeadline {
		t.Fatalf("Degraded=%v reason=%q", r.Result.Degraded, r.Result.DegradeReason)
	}
	if got := cache.Stats().Entries; got != 0 {
		t.Fatalf("deadline-degraded result was cached (%d entries)", got)
	}

	// The same engine with a live context must now produce the real
	// allocation, not a cache hit of the degraded one.
	b2 := eng.Run(context.Background(), []Unit{{Name: "sgemm", Routine: k.Routine()}})
	r2 := b2.Results[0]
	if r2.Err != nil || r2.Result.Degraded || r2.CacheHit {
		t.Fatalf("post-deadline allocation: err=%v degraded=%v hit=%v", r2.Err, r2.Result.Degraded, r2.CacheHit)
	}
}
