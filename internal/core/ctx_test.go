package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// An already-expired deadline cannot hang the allocator: it degrades to
// the spill-everywhere fallback with the fixed reason "deadline", and
// the degraded code is still verified and computes the right answer.
func TestDeadlineDegradesToSpillEverywhere(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	m := target.WithRegs(4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	reg := telemetry.NewRegistry()
	res, err := Allocate(ctx, rt, Options{
		Machine: m, Strategy: "remat", Verify: true,
		Telemetry: &telemetry.Sink{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expired deadline did not degrade")
	}
	if res.DegradeReason != DegradeReasonDeadline {
		t.Fatalf("DegradeReason = %q, want %q", res.DegradeReason, DegradeReasonDeadline)
	}
	if err := verify.Check(rt, res.Routine, m, verify.Options{Differential: true}); err != nil {
		t.Fatalf("deadline-degraded result rejected by verifier: %v", err)
	}
	runSame(t, rt, res.Routine, interp.Int(4))
	if n := reg.Counter("core.degradations").Value(); n != 1 {
		t.Fatalf("core.degradations = %d, want 1", n)
	}
}

// A deadline that expires mid-pipeline (stalled inside a pass via the
// fault-injection hook) is noticed at the next pass boundary and
// degrades with reason "deadline" — the allocator never runs long past
// its budget.
func TestDeadlineMidPipelineDegrades(t *testing.T) {
	const budget = 5 * time.Millisecond
	PanicHook = func(_, pass string) {
		if pass == "build" {
			time.Sleep(4 * budget)
		}
	}
	defer func() { PanicHook = nil }()

	rt := iloc.MustParse(fig1Src)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	res, err := Allocate(ctx, rt, Options{Machine: target.WithRegs(4), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradeReason != DegradeReasonDeadline {
		t.Fatalf("Degraded = %v, DegradeReason = %q", res.Degraded, res.DegradeReason)
	}
}

// Cancellation means the caller abandoned the request: no degradation,
// just the cancellation error wrapped in the allocator's taxonomy.
func TestCancelReturnsErrorWithoutDegrading(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Allocate(ctx, rt, Options{Machine: target.WithRegs(4), Strategy: "remat"})
	if res != nil || err == nil {
		t.Fatalf("cancelled allocation returned (%v, %v)", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	var ae *AllocError
	if !errors.As(err, &ae) || ae.Pass != "context" {
		t.Fatalf("expected *AllocError with pass \"context\", got %v", err)
	}
}

// DisableDegradation turns deadline expiry into an error instead of
// fallback code — the strict callers' contract.
func TestDeadlineWithDegradationDisabled(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Allocate(ctx, rt, Options{
		Machine: target.WithRegs(4), Strategy: "remat", DisableDegradation: true,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
}

// A nil context is treated as context.Background(): the legacy
// facade entry points rely on it.
func TestNilContextAllocates(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	res, err := Allocate(nil, rt, Options{Machine: target.WithRegs(4), Strategy: "remat"}) //nolint:staticcheck
	if err != nil || res.Degraded {
		t.Fatalf("nil-context allocation: res=%+v err=%v", res, err)
	}
}
