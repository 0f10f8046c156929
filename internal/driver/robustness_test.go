package driver

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
)

// TestBatchIsolatesSeededPanic is the fault-isolation acceptance test: a
// panic injected into one unit's pipeline degrades that unit only, and
// every other unit's output is byte-identical to a fault-free run.
func TestBatchIsolatesSeededPanic(t *testing.T) {
	units := testUnits(t)
	cfg := Config{Options: core.Options{Machine: target.Standard(), Strategy: "remat", Verify: true}, Workers: 4}

	clean := New(cfg).Run(context.Background(), units)
	if err := clean.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Degraded != 0 {
		t.Fatalf("fault-free run degraded %d unit(s): %v", clean.Stats.Degraded, clean.Stats.Degradations)
	}

	victim := units[2].Name
	core.PanicHook = func(routine, pass string) {
		if routine == victim && pass == "simplify" {
			panic("seeded batch fault")
		}
	}
	defer func() { core.PanicHook = nil }()

	faulty := New(cfg).Run(context.Background(), units)
	if err := faulty.FirstErr(); err != nil {
		t.Fatalf("seeded fault escaped degradation: %v", err)
	}
	if faulty.Stats.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1 (%v)", faulty.Stats.Degraded, faulty.Stats.Degradations)
	}
	if d := faulty.Stats.Degradations[0]; !strings.HasPrefix(d, victim+": ") || !strings.Contains(d, "seeded batch fault") {
		t.Fatalf("degradation record = %q", d)
	}
	for i := range units {
		got, want := faulty.Results[i], clean.Results[i]
		if units[i].Name == victim {
			if !got.Result.Degraded {
				t.Fatalf("%s: not marked degraded", victim)
			}
			continue
		}
		if got.Result.Degraded {
			t.Fatalf("%s: degraded by a fault in %s", units[i].Name, victim)
		}
		if iloc.Print(got.Result.Routine) != iloc.Print(want.Result.Routine) {
			t.Fatalf("%s: output differs from fault-free run", units[i].Name)
		}
	}
}

// TestBatchIsolatesNonConvergence: one unit carrying options that cannot
// converge (one iteration at K=2) degrades alone; the rest of the batch
// matches a fault-free run byte for byte.
func TestBatchIsolatesNonConvergence(t *testing.T) {
	units := testUnits(t)
	cfg := Config{Options: core.Options{Machine: target.Standard(), Strategy: "remat", Verify: true}, Workers: 4}

	clean := New(cfg).Run(context.Background(), units)
	if err := clean.FirstErr(); err != nil {
		t.Fatal(err)
	}

	victim := 1
	poisoned := &core.Options{Machine: target.WithRegs(3), Strategy: "remat", MaxIterations: 1, Verify: true}
	faultyUnits := append([]Unit(nil), units...)
	faultyUnits[victim].Options = poisoned

	faulty := New(cfg).Run(context.Background(), faultyUnits)
	if err := faulty.FirstErr(); err != nil {
		t.Fatalf("non-convergence escaped degradation: %v", err)
	}
	if faulty.Stats.Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1 (%v)", faulty.Stats.Degraded, faulty.Stats.Degradations)
	}
	for i := range units {
		if i == victim {
			r := faulty.Results[i].Result
			if !r.Degraded || !strings.Contains(r.DegradeReason, "did not converge") {
				t.Fatalf("victim: Degraded=%v reason=%q", r.Degraded, r.DegradeReason)
			}
			continue
		}
		if iloc.Print(faulty.Results[i].Result.Routine) != iloc.Print(clean.Results[i].Result.Routine) {
			t.Fatalf("%s: output differs from fault-free run", units[i].Name)
		}
	}
}

// TestWorkerPanicContained: a panic raised outside core.Allocate's own
// containment — here the cache key hasher printing a routine with a
// corrupt opcode, which indexes past the op table — fails its unit with
// a structured error instead of killing the worker goroutine (which
// would take down the whole process).
func TestWorkerPanicContained(t *testing.T) {
	units := testUnits(t)
	corrupt := suite.ByName("fehl").Routine()
	corrupt.Blocks[0].Instrs[0].Op = iloc.Op(250) // past the op table: Print must panic
	units = append(units, Unit{Name: "corrupt", Routine: corrupt})

	cfg := Config{
		Options: core.Options{Machine: target.Standard(), Strategy: "remat"},
		Workers: 2,
		Cache:   NewCache(0),
	}
	b := New(cfg).Run(context.Background(), units)
	var failed int
	for _, r := range b.Results {
		if r.Err == nil {
			continue
		}
		failed++
		if r.Name != "corrupt" {
			t.Fatalf("fault leaked to %s: %v", r.Name, r.Err)
		}
		var ae *core.AllocError
		if !errors.As(r.Err, &ae) {
			t.Fatalf("worker panic not wrapped in *core.AllocError: %v", r.Err)
		}
		if !strings.Contains(r.Err.Error(), "panic") {
			t.Fatalf("error hides the panic: %v", r.Err)
		}
	}
	if failed != 1 || b.Stats.Failed != 1 {
		t.Fatalf("failed = %d, Stats.Failed = %d, want 1", failed, b.Stats.Failed)
	}
}
