package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
	"repro/internal/verify"
)

// runSame executes the input routine and an allocated routine and
// compares their integer results — the end-to-end soundness check every
// degraded allocation must still pass.
func runSame(t *testing.T, input, allocated *iloc.Routine, args ...interp.Value) {
	t.Helper()
	want, err := mustRun(t, input, args...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustRun(t, allocated, args...)
	if err != nil {
		t.Fatalf("degraded code faults: %v\n%s", err, iloc.Print(allocated))
	}
	if got.RetInt != want.RetInt || got.RetFloat != want.RetFloat {
		t.Fatalf("degraded code computes (%d, %g), input computes (%d, %g)",
			got.RetInt, got.RetFloat, want.RetInt, want.RetFloat)
	}
}

// Non-convergence degrades to spill-everywhere: the result is marked,
// carries the reason, passes the independent verifier, and computes the
// same answer as the virtual-register input.
func TestDegradationOnNonConvergence(t *testing.T) {
	rt := iloc.MustParse(fig1Src)
	m := target.WithRegs(3)
	res, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: "remat", MaxIterations: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expected a degraded result with MaxIterations=1 at K=2")
	}
	if !strings.Contains(res.DegradeReason, "did not converge") {
		t.Fatalf("DegradeReason = %q", res.DegradeReason)
	}
	if err := verify.Check(rt, res.Routine, m, verify.Options{Differential: true}); err != nil {
		t.Fatalf("degraded result rejected by verifier: %v", err)
	}
	runSame(t, rt, res.Routine, interp.Int(4))
}

// A panic seeded into any pass is contained: with degradation disabled
// it surfaces as a structured *AllocError naming the routine, the pass
// and the round, with the stack at the panic; by default the
// allocation degrades to a verified spill-everywhere result. Each pass
// is poisoned where it runs: tags under chaitin, coalesce-cons under
// remat, spill on a starved machine, and one pass in the second round
// the starved machine needs.
func TestPanicContainment(t *testing.T) {
	type poison struct {
		pass     string
		round    int
		strategy string
		machine  *target.Machine
	}
	var cases []poison
	for _, name := range PassNames() {
		c := poison{pass: name, strategy: "remat", machine: target.Standard()}
		switch name {
		case "tags":
			c.strategy = "chaitin"
		case "spill":
			c.machine = target.WithRegs(3)
		}
		cases = append(cases, c)
	}
	cases = append(cases, poison{pass: "build", round: 1, strategy: "remat", machine: target.WithRegs(3)})
	defer func() { PanicHook = nil }()

	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/round%d", c.pass, c.round), func(t *testing.T) {
			// The hook panics the c.round-th time the pass starts in
			// each allocation.
			seen := 0
			PanicHook = func(_, pass string) {
				if pass != c.pass {
					return
				}
				if seen == c.round {
					panic("injected fault")
				}
				seen++
			}
			rt := iloc.MustParse(fig1Src)
			opts := Options{Machine: c.machine, Strategy: c.strategy, DisableDegradation: true}
			_, err := Allocate(context.Background(), rt, opts)
			if err == nil {
				t.Fatal("expected the injected panic to surface as an error")
			}
			var ae *AllocError
			if !errors.As(err, &ae) {
				t.Fatalf("error is not an *AllocError: %v", err)
			}
			if ae.Pass != c.pass || ae.Routine != rt.Name || ae.Iteration != c.round {
				t.Fatalf("AllocError = {Routine:%q Pass:%q Iteration:%d}, want {%q %q %d}",
					ae.Routine, ae.Pass, ae.Iteration, rt.Name, c.pass, c.round)
			}
			if ae.Stack == "" {
				t.Fatal("recovered panic lost its stack trace")
			}
			if !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("error message lost the panic value: %v", err)
			}

			seen = 0
			opts.DisableDegradation, opts.Verify = false, true
			res, err := Allocate(context.Background(), rt, opts)
			if err != nil {
				t.Fatalf("degradation did not rescue the poisoned pipeline: %v", err)
			}
			if !res.Degraded || !strings.Contains(res.DegradeReason, "injected fault") {
				t.Fatalf("Degraded=%v reason=%q", res.Degraded, res.DegradeReason)
			}
			runSame(t, rt, res.Routine, interp.Int(4))
		})
	}
}

// The spill-everywhere fallback on its own: every virtual register gets
// a slot, the output verifies against the machine it targets (including
// a machine with the minimum two colors per bank), and it executes
// identically to the input.
func TestSpillEverywhereDirect(t *testing.T) {
	for _, m := range []*target.Machine{target.Standard(), target.WithRegs(3)} {
		rt := iloc.MustParse(fig1Src)
		res, err := spillEverywhere(rt, Options{Machine: m, Strategy: "remat"}.withDefaults())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := verify.Check(rt, res.Routine, m, verify.Options{Differential: true}); err != nil {
			t.Fatalf("%s: %v\n%s", m.Name, err, iloc.Print(res.Routine))
		}
		runSame(t, rt, res.Routine, interp.Int(4))
	}
}

// A fault in the final pass — rewrite, which produces the allocated
// code itself — still degrades: the pipeline never yields output, and
// the fallback's result is the only sound one.
func TestFaultInRewriteDegrades(t *testing.T) {
	PanicHook = func(_, pass string) {
		if pass == "rewrite" {
			panic("rewrite corrupted")
		}
	}
	defer func() { PanicHook = nil }()
	rt := iloc.MustParse(fig1Src)
	res, err := Allocate(context.Background(), rt, Options{Machine: target.Standard(), Strategy: "remat", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("expected degradation when rewrite cannot complete")
	}
	runSame(t, rt, res.Routine, interp.Int(4))
}
