package core

import (
	"fmt"

	"repro/internal/iloc"
)

// errUncolored reports a register that survived to rewrite without a
// color — an internal invariant violation.
func errUncolored(a *allocator, in *iloc.Instr) error {
	return fmt.Errorf("core: %s: uncolored register in %q", a.rt.Name, in)
}

// insertSpills converts each uncolored live range into tiny ranges. A ⊥
// range gets Chaitin's heavyweight treatment — a store after every
// definition, a reload before every use. A never-killed range is
// rematerialized: its tag instruction is issued into a fresh register
// before each use and its definitions are simply deleted, since the value
// need never live in memory (§3.2, spill code). It returns the number of
// ranges given spill code and the subset that rematerialized, for the
// pipeline's stats.
func (a *allocator) insertSpills(cs *classState, spilled []int) (n, remat int) {
	c := cs.c
	isSpilled := resetTable(cs.isSpilled, a.rt.NumRegs(c))
	cs.isSpilled = isSpilled
	for _, v := range spilled {
		isSpilled[v] = true
		n++
		if cs.tags[v].Rematerializable() {
			remat++
		}
	}
	a.res.SpilledRanges += n
	a.res.RematSpills += remat

	for _, b := range a.rt.Blocks {
		out := cs.out[:0]
		for _, in := range b.Instrs {
			d := in.Def()
			defSpilled := d.Valid() && d.Class == c && d.N != 0 && isSpilled[d.N]

			// A definition of a rematerializable spilled range vanishes:
			// the value is recomputed at each use instead. Its defining
			// instructions are never-killed instructions or copies, so
			// dropping them loses no side effect — and drops their
			// operand reloads with them.
			if defSpilled && cs.tagOf(d.N).Rematerializable() {
				continue
			}

			// Reload (or rematerialize) each spilled use into a fresh
			// temporary; one temporary per range per instruction.
			replaced := cs.replaced[:0]
			uses := in.Uses()
			for ui := range uses {
				u := uses[ui]
				if u.Class != c || u.N == 0 || !isSpilled[u.N] {
					continue
				}
				t, ok := iloc.NoReg, false
				for _, r := range replaced {
					if r.n == u.N {
						t, ok = r.temp, true
						break
					}
				}
				if !ok {
					t = a.rt.NewReg(c)
					replaced = append(replaced, spillTemp{n: u.N, temp: t})
					ri := a.newInstr()
					if tag := cs.tagOf(u.N); tag.Rematerializable() {
						*ri = *tag.Instr
						ri.Dst = t
						ri.IsSpill = true
						ri.IsSplit = false
					} else {
						*ri = iloc.Instr{
							Op:  reloadOp(c),
							Dst: t, Src: [2]iloc.Reg{iloc.FP, iloc.NoReg},
							Imm: a.slotFor(cs, u.N), IsSpill: true,
						}
					}
					out = append(out, ri)
				}
				if in.Op == iloc.OpPhi {
					in.Phi.Args[ui] = t
				} else {
					in.Src[ui] = t
				}
			}
			cs.replaced = replaced

			if defSpilled { // ⊥ range: redirect the def and store it
				t := a.rt.NewReg(c)
				in.Dst = t
				st := a.newInstr()
				*st = iloc.Instr{
					Op:  storeOp(c),
					Dst: iloc.NoReg,
					Src: [2]iloc.Reg{t, iloc.FP},
					Imm: a.slotFor(cs, d.N), IsSpill: true,
				}
				out = append(out, in, st)
				continue
			}
			out = append(out, in)
		}
		cs.out = out
		b.Instrs = append(b.Instrs[:0], out...)
	}
	return n, remat
}

// spillTemp is the temporary one spilled range is reloaded into for
// one instruction.
type spillTemp struct {
	n    int
	temp iloc.Reg
}

func reloadOp(c iloc.Class) iloc.Op {
	if c == iloc.ClassInt {
		return iloc.OpLoadai
	}
	return iloc.OpFloadai
}

func storeOp(c iloc.Class) iloc.Op {
	if c == iloc.ClassInt {
		return iloc.OpStoreai
	}
	return iloc.OpFstoreai
}
