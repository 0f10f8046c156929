package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/rgen"
	"repro/internal/target"
	"repro/internal/verify"
)

// FuzzAllocate drives the whole robustness contract from hostile text:
// whatever parses and verifies as input ILOC, Allocate must finish
// without a panic escaping, and — for inputs with no undefined uses —
// every allocation it hands back must satisfy the independent checker,
// degraded or not.
func FuzzAllocate(f *testing.F) {
	// Seeds: the repository's example files, generator output at a few
	// shapes, small hand-written routines covering calls and spills, a
	// chain of loops with far more SSA values than live ranges, and one
	// whose only register is r2000000.
	if paths, err := filepath.Glob("../../testdata/*.iloc"); err == nil {
		for _, p := range paths {
			if b, err := os.ReadFile(p); err == nil {
				f.Add(string(b))
			}
		}
	}
	rng := rand.New(rand.NewSource(1992))
	for _, cfg := range []rgen.Config{{}, {MaxDepth: 1, Regions: 3}, {MaxDepth: 3, Regions: 8}} {
		f.Add(iloc.Print(rgen.Generate(rng, cfg)))
	}
	f.Add("routine k()\nentry:\n ldi r1, 7\n call g\n getret r2\n add r3, r1, r2\n retr r3\n")
	f.Add("routine k()\ndata a rw 8 = 1 2 3 4 5 6 7 8\nentry:\n lda r1, a\n load r2, r1\n loadai r3, r1, 8\n loadai r4, r1, 16\n add r5, r2, r3\n add r5, r5, r4\n retr r5\n")
	f.Add(loopChain(200))
	f.Add(sparseChain(100))

	machines := []*target.Machine{target.Standard(), target.WithRegs(4)}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		rt, err := iloc.Parse(src)
		if err != nil {
			return
		}
		if iloc.Verify(rt, false) != nil {
			return
		}
		instrs, words := 0, 0
		rt.ForEachInstr(func(_ *iloc.Block, _ int, _ *iloc.Instr) { instrs++ })
		for _, d := range rt.Data {
			words += d.Words
		}
		if instrs > 1000 || words > 1<<16 {
			t.Skip("routine too large")
		}
		// The checks below size their tables by the largest register
		// number, so a single "ldi r100000000, 1" line would make them
		// the test's memory bill; the allocator names registers densely
		// and allocates any register space, but only small ones are
		// checked.
		small := rt.NextReg[iloc.ClassInt] <= 128 && rt.NextReg[iloc.ClassFlt] <= 128
		// CheckDefined needs CFG edges; run it on a clone so the input
		// handed to Allocate stays pristine.
		probe := rt.Clone()
		defined := small && cfg.Build(probe) == nil && cfg.CheckDefined(probe) == nil

		for _, m := range machines {
			res, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: "remat"})
			if err != nil {
				// Even the spill-everywhere fallback refused: allowed,
				// but the failure must be a structured AllocError.
				var ae *AllocError
				if !errors.As(err, &ae) {
					t.Fatalf("%s: unstructured failure: %T %v", m.Name, err, err)
				}
				continue
			}
			if !defined {
				continue // input's own undefined uses would trip the checker
			}
			if verr := verify.Check(rt, res.Routine, m, verify.Options{}); verr != nil {
				t.Fatalf("%s: allocation rejected by verifier (degraded=%v): %v\ninput:\n%s\noutput:\n%s",
					m.Name, res.Degraded, verr, iloc.Print(rt), iloc.Print(res.Routine))
			}
		}
	})
}
