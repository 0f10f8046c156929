package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/rgen"
	"repro/internal/target"
	"repro/internal/verify"
)

// FuzzAllocate drives the whole robustness contract from hostile text:
// whatever parses and verifies as input ILOC, Allocate must finish
// without a panic escaping, and — for inputs with no undefined uses —
// every allocation it hands back must satisfy the independent checker,
// degraded or not. Inputs without calls also run here, the input and
// each allocation at a few argument values (see checkSameRuns), since
// the checker's own differential run skips routines with parameters.
func FuzzAllocate(f *testing.F) {
	// Seeds: the repository's example files, generator output at a few
	// shapes, small hand-written routines covering calls and spills, a
	// chain of loops with far more SSA values than live ranges, one
	// whose only register is r2000000, a 3-instruction routine naming
	// r2000000, one that returns 1/0.0 or 1/-0.0 by its argument, and
	// the regression corpus.
	for _, glob := range []string{"../../testdata/*.iloc", "../../testdata/regress/*.iloc"} {
		paths, _ := filepath.Glob(glob)
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
	f.Add("routine k()\nentry:\n ldi r2000000, 5\n addi r2000001, r2000000, 2\n retr r2000001\n")
	f.Add(signedZeroSrc)

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
		// CheckDefined needs CFG edges and sizes its tables by the
		// largest register number. It runs on a clone named densely, as
		// Allocate names its own, so the input handed to Allocate stays
		// pristine and "ldi r100000000, 1" costs what "ldi r1, 1" does.
		probe := rt.Clone()
		probe.DenseRegs()
		defined := cfg.Build(probe) == nil && cfg.CheckDefined(probe) == nil
		run := defined && !hasCall(rt)

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
			if run {
				checkSameRuns(t, m.Name, rt, res.Routine)
			}
		}
	})
}

// hasCall reports whether rt calls a routine.
func hasCall(rt *iloc.Routine) bool {
	for _, b := range rt.Blocks {
		if slices.ContainsFunc(b.Instrs, func(in *iloc.Instr) bool { return in.Op.IsCall() }) {
			return true
		}
	}
	return false
}

// The argument values checkSameRuns passes: run i passes fuzzInts[i] to
// every integer parameter and fuzzFloats[i] to every float one.
var (
	fuzzInts   = [...]int64{-1, 0, 1}
	fuzzFloats = [...]float64{math.Copysign(0, -1), 0, 1.5}
)

// fuzzArgs returns rt's arguments for run i of checkSameRuns.
func fuzzArgs(rt *iloc.Routine, i int) []interp.Value {
	args := make([]interp.Value, len(rt.Params))
	for j, p := range rt.Params {
		args[j] = interp.Int(fuzzInts[i])
		if p.Reg.Class == iloc.ClassFlt {
			args[j] = interp.Float(fuzzFloats[i])
		}
	}
	return args
}

// runImage is what one interpreter run leaves: the outcome and the
// words of the writable data in order.
type runImage struct {
	out  *interp.Outcome
	data []int64
}

func (a runImage) String() string {
	return fmt.Sprintf("int %d, float %v (has %t)", a.out.RetInt, a.out.RetFloat, a.out.HasRet)
}

func (a runImage) same(b runImage) bool {
	return a.out.HasRet == b.out.HasRet && a.out.RetInt == b.out.RetInt &&
		math.Float64bits(a.out.RetFloat) == math.Float64bits(b.out.RetFloat) && slices.Equal(a.data, b.data)
}

// runAt runs rt at args.
func runAt(rt *iloc.Routine, args []interp.Value) (runImage, error) {
	e, err := interp.New(rt, interp.Config{MaxSteps: 100_000})
	if err != nil {
		return runImage{}, err
	}
	o, err := e.Run(args...)
	if err != nil {
		return runImage{}, err
	}
	im := runImage{out: o}
	for _, d := range rt.Data {
		for w := range d.Words {
			if !d.ReadOnly {
				im.data = append(im.data, e.IntAt(e.DataAddr(d.Label)+int64(w)*8))
			}
		}
	}
	return im, nil
}

// checkSameRuns runs the input in and its allocation out at each set of
// argument values, or once when in takes none, and fails t when they
// return different bits or leave different writable data. Data
// addresses do not depend on the frame, and spill slots lie above every
// frame word the input addresses, so the two runs must agree. An
// argument set is skipped when the input faults or runs out of steps.
func checkSameRuns(t *testing.T, machine string, in, out *iloc.Routine) {
	t.Helper()
	for i := range fuzzInts {
		if i > 0 && len(in.Params) == 0 {
			break
		}
		args := fuzzArgs(in, i)
		want, err := runAt(in, args)
		if err != nil {
			continue
		}
		got, err := runAt(out, args)
		if err != nil {
			t.Fatalf("%s, arguments %v: the allocation fails where the input runs: %v\ninput:\n%s\noutput:\n%s",
				machine, args, err, iloc.Print(in), iloc.Print(out))
		}
		if !got.same(want) {
			t.Fatalf("%s, arguments %v: the allocation returns %s with data %v, the input %s with data %v\ninput:\n%s\noutput:\n%s",
				machine, args, got, got.data, want, want.data, iloc.Print(in), iloc.Print(out))
		}
	}
}
