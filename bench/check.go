package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/target"
)

// A program is one corpus unit as the interpreter runs it: the main
// routine first, then its callees.

// runner executes a program given its main routine and callees. Corpus
// programs run from their static data (runPlain); suite kernels bring
// their own set-up and reference check (Kernel.ExecuteWith).
type runner func(main *iloc.Routine, callees []*iloc.Routine) (*interp.Outcome, error)

// runPlain runs a corpus program with no arguments.
func runPlain(main *iloc.Routine, callees []*iloc.Routine) (*interp.Outcome, error) {
	e, err := interp.New(main, interp.Config{Routines: callees})
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// image runs a corpus program and captures what it observably does: the
// return value, bit for bit, and every word of every read-write data
// item of every routine.
func image(prog []*iloc.Routine) (*interp.Outcome, []uint64, error) {
	e, err := interp.New(prog[0], interp.Config{Routines: prog[1:]})
	if err != nil {
		return nil, nil, err
	}
	out, err := e.Run()
	if err != nil {
		return nil, nil, err
	}
	img := []uint64{math.Float64bits(out.RetFloat), uint64(out.RetInt)}
	for _, rt := range prog {
		for _, d := range rt.Data {
			if d.ReadOnly {
				continue
			}
			base := e.DataAddr(d.Label)
			for w := 0; w < d.Words; w++ {
				img = append(img, uint64(e.IntAt(base+int64(w)*8)))
			}
		}
	}
	return out, img, nil
}

// quality sums, over the programs checked, what allocated code costs
// against its input: dynamic cycles priced with the workload machine's
// cycle model, and static instructions.
type quality struct {
	allocCycles, inputCycles int64
	allocInstrs, inputInstrs int64
}

// add folds another set of programs into q.
func (q *quality) add(p quality) {
	q.allocCycles += p.allocCycles
	q.inputCycles += p.inputCycles
	q.allocInstrs += p.allocInstrs
	q.inputInstrs += p.inputInstrs
}

// cyclesRatio is the allocated programs' run time over the unallocated
// ones': spill code raises it, coalesced copies lower it.
func (q quality) cyclesRatio() float64 {
	return float64(q.allocCycles) / float64(q.inputCycles)
}

// codeRatio is the allocated programs' static size over the inputs'.
func (q quality) codeRatio() float64 {
	return float64(q.allocInstrs) / float64(q.inputInstrs)
}

// checkProgram runs an allocated program and its input in the
// interpreter, fails unless both give the same return value and data
// image, and adds the pair to q.
func (q *quality) checkProgram(input, alloc []*iloc.Routine, m *target.Machine) error {
	inOut, want, err := image(input)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	allocOut, got, err := image(alloc)
	if err != nil {
		return fmt.Errorf("allocated: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("data image has %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("data image differs from the unallocated program at word %d", i)
		}
	}
	q.allocCycles += priced(allocOut, m)
	q.inputCycles += priced(inOut, m)
	q.allocInstrs += instrs(alloc)
	q.inputInstrs += instrs(input)
	return nil
}

// priced is an execution's cycle count under m's cost model.
func priced(out *interp.Outcome, m *target.Machine) int64 {
	return out.Cycles(int64(m.MemCycles), int64(m.OtherCycles))
}

// instrs counts a program's static instructions.
func instrs(prog []*iloc.Routine) int64 {
	var n int64
	for _, rt := range prog {
		for _, b := range rt.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}

// flatten lists the routines of programs in order.
func flatten(progs [][]*iloc.Routine) []*iloc.Routine {
	var out []*iloc.Routine
	for _, p := range progs {
		out = append(out, p...)
	}
	return out
}

// allocateProgram allocates every routine of a program under opts.
func allocateProgram(ctx context.Context, prog []*iloc.Routine, opts core.Options) ([]*iloc.Routine, error) {
	out := make([]*iloc.Routine, len(prog))
	for i, rt := range prog {
		res, err := core.Allocate(ctx, rt, opts)
		if err != nil {
			return nil, err
		}
		out[i] = res.Routine
	}
	return out, nil
}

// spillCycles is Table 1's measure for one program: the cycles of the
// program allocated for m minus the cycles of the same program
// allocated for the huge machine, both priced with m's cycle model.
func spillCycles(alloc, huge []*iloc.Routine, m *target.Machine, run runner) (int64, error) {
	a, err := run(alloc[0], alloc[1:])
	if err != nil {
		return 0, fmt.Errorf("allocated for %s: %w", m.Name, err)
	}
	h, err := run(huge[0], huge[1:])
	if err != nil {
		return 0, fmt.Errorf("allocated for huge: %w", err)
	}
	return priced(a, m) - priced(h, m), nil
}

// parseServed turns one response's units back into the allocated
// program they encode. The text carries the code; the allocated flag,
// frame size and caller-save partition come from the response and the
// machine, so the interpreter poisons caller-save colors after calls as
// it does for in-process allocations.
func parseServed(units []server.UnitResponse, m *target.Machine) ([]*iloc.Routine, error) {
	prog := make([]*iloc.Routine, len(units))
	for i, u := range units {
		rt, err := iloc.Parse(u.Code)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", u.Name, err)
		}
		rt.Allocated = true
		rt.FrameWords = u.FrameWords
		for c := range rt.CallerSave {
			rt.CallerSave[c] = m.CallerSave
		}
		prog[i] = rt
	}
	return prog, nil
}
