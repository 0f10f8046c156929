package core

import (
	"fmt"

	"repro/internal/iloc"
	"repro/internal/target"
)

// spillEverywhere is the graceful-degradation allocator: every virtual
// register lives in a frame slot, every use reloads it into a scratch
// color just before the instruction, and every definition stores it
// right back. The output is as slow as allocated code gets, but the
// construction is a single linear pass with no coloring, no liveness and
// no iteration, so it terminates on any verifiable input and cannot
// spill-loop — the always-terminating baseline of the spill-everywhere
// literature (Bouchez, Darte & Rastello). Allocate falls back to it when
// the iterated build–color–spill loop fails (non-convergence, a
// contained panic, or a verifier rejection), so one poisoned routine
// degrades to correct-but-slow code instead of failing a whole batch.
//
// Scratch registers are colors 1 and 2 of each bank (every valid
// machine exposes at least two); they are dead between instructions, so
// nothing is live across a call and the caller-save discipline holds
// trivially.
func spillEverywhere(input *iloc.Routine, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recovered(input.Name, "spill-everywhere", 0, r)
		}
	}()

	// A register is its own slot key; dense names keep the key tables
	// as small as the code.
	rt := input.Clone()
	rt.DenseRegs()
	register := func(_ iloc.Class, n int) int { return n }
	return spillAll(rt, input.LocalWords(), opts.Machine, "spill-everywhere", register, nil)
}

// spillAll is the rewrite both spill-everywhere constructions share: in
// one linear pass over rt, each use reloads its register's slot into a
// scratch color just before the instruction, and each definition
// computes into scratch color 1 and stores it to its slot. slot keys a
// register's slot (the register itself, or its φ-web's root, below
// rt.NumRegs): registers of one key share a frame word, assigned in
// order of first reference after the input's localWords frame words.
// keep reports whether a definition's store is kept; nil keeps every
// store. The routine must hold no φ-node. pass names the construction in
// errors and in the result's one PassStat.
func spillAll(rt *iloc.Routine, localWords int, m *target.Machine, pass string, slot func(iloc.Class, int) int, keep func(iloc.Class, int) bool) (*Result, error) {
	nextSlot := 0
	var slots [iloc.NumClasses][]int32 // key -> 1 + its slot's index, or 0
	for c := range slots {
		slots[c] = make([]int32, rt.NumRegs(iloc.Class(c)))
	}
	slotFor := func(c iloc.Class, n int) int64 {
		key := slot(c, n)
		if slots[c][key] == 0 {
			nextSlot++
			slots[c][key] = int32(nextSlot)
		}
		return int64(localWords+int(slots[c][key])-1) * 8
	}

	var st IterationStats
	for _, b := range rt.Blocks {
		out := make([]*iloc.Instr, 0, 3*len(b.Instrs))
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				return nil, fmt.Errorf("core: %s: φ-node in %s", pass, rt.Name)
			}
			// Reload each distinct spilled use into its own scratch color.
			assigned := map[iloc.Reg]iloc.Reg{}
			next := [iloc.NumClasses]int{1, 1}
			for i := 0; i < in.Op.NSrc(); i++ {
				u := in.Src[i]
				if !u.Valid() || u.N == 0 {
					continue
				}
				t, ok := assigned[u]
				if !ok {
					col := next[u.Class]
					next[u.Class]++
					if col > m.K(u.Class) {
						return nil, fmt.Errorf("core: %s: %q needs %d scratch %s registers, machine %s has %d",
							pass, rt.InstrString(in), col, u.Class, m.Name, m.K(u.Class))
					}
					t = iloc.Reg{Class: u.Class, N: int32(col)}
					assigned[u] = t
					out = append(out, &iloc.Instr{
						Op:  reloadOp(u.Class),
						Dst: t, Src: [2]iloc.Reg{iloc.FP, iloc.NoReg},
						Imm: slotFor(u.Class, int(u.N)), IsSpill: true,
					})
					st.Spilled[u.Class]++
				}
				in.Src[i] = t
			}
			// The definition computes into scratch color 1, written only
			// after the sources are read.
			if d := in.Def(); d.Valid() && d.N != 0 {
				t := iloc.Reg{Class: d.Class, N: 1}
				in.Dst = t
				out = append(out, in)
				if keep == nil || keep(d.Class, int(d.N)) {
					out = append(out, &iloc.Instr{
						Op:  storeOp(d.Class),
						Dst: iloc.NoReg,
						Src: [2]iloc.Reg{t, iloc.FP},
						Imm: slotFor(d.Class, int(d.N)), IsSpill: true,
					})
				}
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}

	rt.FrameWords = localWords + nextSlot
	rt.Allocated = true
	for c := range rt.NextReg {
		rt.NextReg[c] = m.Regs[c]
		rt.CallerSave[c] = m.CallerSave
	}

	st.Passes = []PassStat{{Name: pass, Spilled: nextSlot}}
	return &Result{
		Routine:       rt,
		Iterations:    []IterationStats{st},
		SpilledRanges: nextSlot,
		Machine:       m,
	}, nil
}
