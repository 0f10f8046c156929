package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/ssa"
	"repro/internal/target"
)

// sparseChain is loopChain(n) with its one register named r2000000.
func sparseChain(n int) string {
	return strings.ReplaceAll(loopChain(n), "r2", "r2000000")
}

// A routine's register numbers, not its size, used to size round 0's
// liveness and SSA tables: a 100-loop chain naming r2000000 took
// hundreds of MiB. Named densely first, it allocates to the same code
// as the chain naming r2, in about the same memory.
func TestSparseRegisterNamesAllocateDensely(t *testing.T) {
	opts := Options{Machine: target.Standard(), Strategy: "remat", DisableDegradation: true}
	dense, err := Allocate(context.Background(), iloc.MustParse(loopChain(100)), opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := iloc.MustParse(sparseChain(100))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sparse, err := Allocate(context.Background(), rt, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := iloc.Print(sparse.Routine), iloc.Print(dense.Routine); got != want {
		t.Errorf("r2000000 chain allocated to\n%s\nr2 chain to\n%s", got, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("Allocate allocated %d MiB", alloc>>20)
	}
	if rt.NextReg[iloc.ClassInt] != 2000001 || !strings.Contains(iloc.Print(rt), "r2000000") {
		t.Error("Allocate renamed the input's registers")
	}
}

// Errors name registers as the input does, however the allocator
// renamed them.
func TestSparseRegisterErrorsNameInputRegisters(t *testing.T) {
	for _, tc := range []struct{ src, reg string }{
		{"routine u()\nentry:\n ldi r9000000, 1\n add r7000000, r9000000, r5000000\n retr r7000000\n", "r5000000"},
		{"routine u()\nentry:\n fldi f9000000, 1.5\n fadd f7000000, f9000000, f5000000\n retf f7000000\n", "f5000000"},
	} {
		_, err := Allocate(context.Background(), iloc.MustParse(tc.src), Options{Strategy: "remat", DisableDegradation: true})
		var undef *ssa.UndefinedUseError
		if !errors.As(err, &undef) {
			t.Fatalf("%q: got %v, want an undefined use", tc.src, err)
		}
		if want := "ssa: use of undefined register " + tc.reg + " at entry"; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// spreadRegisters returns a copy of rt with every register k but the
// frame pointer renamed to 1000k+7: the same order, far apart.
func spreadRegisters(rt *iloc.Routine) *iloc.Routine {
	c := rt.Clone()
	for cl := range iloc.NumClasses {
		forEachRegRef(c, iloc.Class(cl), func(r *iloc.Reg) { r.N = 1000*r.N + 7 })
		if c.NextReg[cl] > 0 {
			c.NextReg[cl] = 1000*(c.NextReg[cl]-1) + 8
		}
	}
	return c
}

// Spreading a routine's register numbers apart changes neither its
// allocated code nor any pass's counts.
func TestSpreadRegistersAllocateIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale test skipped in -short mode")
	}
	for _, g := range goldenCorpusDigests {
		if g.strategy == "spill-everywhere" || g.strategy == "ssa-spill" {
			continue // linear constructions: not Figure 2
		}
		spec, err := corpus.ParseSpec(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		units, err := corpus.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machines.Lookup(g.machine)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Machine: m, Strategy: g.strategy}
		for _, rt := range corpus.Routines(units) {
			want, err := Allocate(context.Background(), rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Allocate(context.Background(), spreadRegisters(rt), opts)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(got) != resultDigest(want) {
				t.Fatalf("%s on %s under %s: spread registers allocate to\n%s\nwant\n%s",
					rt.Name, g.machine, g.strategy, iloc.Print(got.Routine), iloc.Print(want.Routine))
			}
		}
	}
}
