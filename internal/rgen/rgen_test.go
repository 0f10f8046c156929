package rgen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/target"
)

// image runs the routine and captures its observable behaviour: the
// returned value (bit-exact) and the full contents of both read-write
// arrays.
func image(t *testing.T, rt *iloc.Routine, words int) []uint64 {
	t.Helper()
	e, err := interp.New(rt, interp.Config{})
	if err != nil {
		t.Fatalf("env: %v\n%s", err, iloc.Print(rt))
	}
	out, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, iloc.Print(rt))
	}
	img := []uint64{math.Float64bits(out.RetFloat)}
	for _, label := range []string{"rwa", "rwb"} {
		base := e.DataAddr(label)
		for w := 0; w < words; w++ {
			img = append(img, math.Float64bits(e.FloatAt(base+int64(w)*8)))
		}
	}
	return img
}

func equalImages(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllocationPreservesSemantics is the central property test of the
// whole allocator: on randomly generated programs, every mode, machine
// and splitting scheme must reproduce the virtual-register behaviour
// bit for bit — return value and memory image.
func TestAllocationPreservesSemantics(t *testing.T) {
	const seeds = 100
	cfg := Config{}
	machines := []*target.Machine{target.Standard(), target.WithRegs(4)}
	optsList := []core.Options{
		{Strategy: "chaitin"},
		{Strategy: "remat"},
		{Strategy: "remat:split=all-phis"},
		{Strategy: "remat:split=all-loops"},
	}
	for seed := int64(0); seed < seeds; seed++ {
		rt := Generate(rand.New(rand.NewSource(seed)), cfg)
		want := image(t, rt, cfg.withDefaults().DataWords)
		for _, m := range machines {
			for _, base := range optsList {
				opts := base
				opts.Machine = m
				res, err := core.Allocate(context.Background(), rt, opts)
				if err != nil {
					t.Fatalf("seed %d, %s/%s: %v\n%s", seed, m.Name, opts.Strategy, err, iloc.Print(rt))
				}
				got := image(t, res.Routine, cfg.withDefaults().DataWords)
				if !equalImages(want, got) {
					t.Fatalf("seed %d, %s/%s: behaviour changed\n--- input ---\n%s\n--- allocated ---\n%s",
						seed, m.Name, opts.Strategy, iloc.Print(rt), iloc.Print(res.Routine))
				}
			}
		}
	}
}

// TestGenerateDeterministic pins the generator: same seed, same routine.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), Config{})
	b := Generate(rand.New(rand.NewSource(7)), Config{})
	if iloc.Print(a) != iloc.Print(b) {
		t.Fatal("generator not deterministic")
	}
	c := Generate(rand.New(rand.NewSource(8)), Config{})
	if iloc.Print(a) == iloc.Print(c) {
		t.Fatal("different seeds produced identical routines")
	}
}

// TestGeneratedRoutinesVerifyAndTerminate smoke-checks a larger sample.
func TestGeneratedRoutinesVerifyAndTerminate(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		rt := Generate(rand.New(rand.NewSource(seed)), Config{Regions: 8, MaxDepth: 3})
		if err := iloc.Verify(rt, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e, err := interp.New(rt, interp.Config{MaxSteps: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, iloc.Print(rt))
		}
	}
}

// programImage runs a whole program (main + callees) and captures the
// return value plus every routine's read-write arrays.
func programImage(t *testing.T, main *iloc.Routine, callees []*iloc.Routine, words int) []uint64 {
	t.Helper()
	e, err := interp.New(main, interp.Config{Routines: callees})
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatalf("run: %v\n--- main ---\n%s", err, iloc.Print(main))
	}
	img := []uint64{math.Float64bits(out.RetFloat), uint64(out.RetInt)}
	collect := func(rt *iloc.Routine) {
		for _, d := range rt.Data {
			if d.ReadOnly {
				continue
			}
			base := e.DataAddr(d.Label)
			for w := 0; w < d.Words; w++ {
				img = append(img, math.Float64bits(e.FloatAt(base+int64(w)*8)))
			}
		}
	}
	collect(main)
	for _, c := range callees {
		collect(c)
	}
	return img
}

// TestProgramAllocationPreservesSemantics: whole programs — main plus
// callees, both allocated — behave exactly like their virtual-register
// versions, with the interpreter poisoning caller-save registers after
// every call. Any live-across-call value wrongly given a caller-save
// color turns into garbage and fails the comparison.
func TestProgramAllocationPreservesSemantics(t *testing.T) {
	const seeds = 60
	cfg := Config{}
	machines := []*target.Machine{target.Standard(), target.WithRegs(8)}
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		main, callees := GenerateProgram(rand.New(rand.NewSource(seed)), cfg)
		want := programImage(t, main, callees, cfg.withDefaults().DataWords)
		for _, m := range machines {
			for _, mode := range []string{"chaitin", "remat"} {
				opts := core.Options{Machine: m, Strategy: mode}
				aMain, err := core.Allocate(context.Background(), main, opts)
				if err != nil {
					t.Fatalf("seed %d main: %v", seed, err)
				}
				var aCallees []*iloc.Routine
				for _, c := range callees {
					ac, err := core.Allocate(context.Background(), c, opts)
					if err != nil {
						t.Fatalf("seed %d callee: %v", seed, err)
					}
					aCallees = append(aCallees, ac.Routine)
				}
				got := programImage(t, aMain.Routine, aCallees, cfg.withDefaults().DataWords)
				if !equalImages(want, got) {
					t.Fatalf("seed %d %s/%v: program behaviour changed\n--- main ---\n%s",
						seed, m.Name, mode, iloc.Print(aMain.Routine))
				}
			}
		}
	}
}
