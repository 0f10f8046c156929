package suite

import (
	"context"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/target"
)

// TestKernelsRunUnallocated checks every kernel's reference semantics on
// virtual-register code.
func TestKernelsRunUnallocated(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Program+"/"+k.Name, func(t *testing.T) {
			rt := k.Routine()
			if err := iloc.Verify(rt, false); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Execute(rt); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsSurviveAllocation allocates every kernel in both modes on
// several machines and re-checks the reference result — the end-to-end
// correctness property of the whole allocator.
func TestKernelsSurviveAllocation(t *testing.T) {
	machines := []*target.Machine{
		target.Standard(),
		target.Huge(),
		target.WithRegs(8),
		target.WithRegs(5),
	}
	for _, k := range All() {
		k := k
		t.Run(k.Program+"/"+k.Name, func(t *testing.T) {
			for _, m := range machines {
				for _, mode := range []string{"chaitin", "remat"} {
					res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: mode})
					if err != nil {
						t.Fatalf("%s %v: %v", m.Name, mode, err)
					}
					if _, err := k.Execute(res.Routine); err != nil {
						t.Fatalf("%s %v: %v", m.Name, mode, err)
					}
				}
			}
		})
	}
}

// TestKernelsSurviveSplittingSchemes checks §6's experimental splitting
// schemes preserve semantics on every kernel.
func TestKernelsSurviveSplittingSchemes(t *testing.T) {
	schemes := []core.SplitScheme{
		core.SplitAllLoops, core.SplitOuterLoops, core.SplitInactiveLoops, core.SplitAtPhis,
	}
	for _, k := range All() {
		k := k
		t.Run(k.Program+"/"+k.Name, func(t *testing.T) {
			for _, s := range schemes {
				for _, m := range []*target.Machine{target.Standard(), target.WithRegs(6)} {
					res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: "remat:split=" + s.String()})
					if err != nil {
						t.Fatalf("scheme %v on %s: %v", s, m.Name, err)
					}
					if _, err := k.Execute(res.Routine); err != nil {
						t.Fatalf("scheme %v on %s: %v", s, m.Name, err)
					}
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if ByName("fehl") == nil {
		t.Fatal("fehl missing")
	}
	if ByName("nosuch") != nil {
		t.Fatal("phantom kernel")
	}
}

// TestNamesUnique guards the registry.
func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range All() {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.Setup == nil || k.Check == nil || k.Source == "" {
			t.Fatalf("kernel %s incomplete", k.Name)
		}
	}
}

// TestKernelsDefiniteAssignment: every kernel defines every register
// before use on all paths, before and after allocation.
func TestKernelsDefiniteAssignment(t *testing.T) {
	for _, k := range All() {
		rt := k.Routine()
		if err := cfg.Build(rt); err != nil {
			t.Fatal(err)
		}
		if err := cfg.CheckDefined(rt); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: target.WithRegs(6), Strategy: "remat"})
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Build(res.Routine); err != nil {
			t.Fatal(err)
		}
		if err := cfg.CheckDefined(res.Routine); err != nil {
			t.Errorf("%s allocated: %v", k.Name, err)
		}
	}
}

// TestKernelsExtremePressure allocates the whole suite on a 3-register
// machine (two colors per class) — nearly everything spills — and
// re-checks every reference result.
func TestKernelsExtremePressure(t *testing.T) {
	m := target.WithRegs(3)
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			for _, mode := range []string{"chaitin", "remat"} {
				res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: m, Strategy: mode})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				var callees []*iloc.Routine
				for _, c := range k.CalleeRoutines() {
					cr, err := core.Allocate(context.Background(), c, core.Options{Machine: m, Strategy: mode})
					if err != nil {
						t.Fatalf("mode %v callee: %v", mode, err)
					}
					callees = append(callees, cr.Routine)
				}
				if _, err := k.ExecuteWith(res.Routine, callees); err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
			}
		})
	}
}

// TestKernelsVerifyCleanly is the acceptance bar for the post-allocation
// verifier: every kernel (and every callee it links against) allocates
// at standard K in both modes with Options.Verify on, and none of them
// degrades to the spill-everywhere fallback. A degradation here means
// either the allocator emitted something the verifier rejects or the
// verifier has a false positive — both are bugs.
func TestKernelsVerifyCleanly(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Program+"/"+k.Name, func(t *testing.T) {
			for _, mode := range []string{"chaitin", "remat"} {
				opts := core.Options{Machine: target.Standard(), Strategy: mode, Verify: true}
				res, err := core.Allocate(context.Background(), k.Routine(), opts)
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				if res.Degraded {
					t.Fatalf("mode %v: degraded at standard K: %s", mode, res.DegradeReason)
				}
				var callees []*iloc.Routine
				for _, c := range k.CalleeRoutines() {
					cr, err := core.Allocate(context.Background(), c, opts)
					if err != nil {
						t.Fatalf("mode %v callee %s: %v", mode, c.Name, err)
					}
					if cr.Degraded {
						t.Fatalf("mode %v callee %s: degraded: %s", mode, c.Name, cr.DegradeReason)
					}
					callees = append(callees, cr.Routine)
				}
				if _, err := k.ExecuteWith(res.Routine, callees); err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
			}
		})
	}
}
