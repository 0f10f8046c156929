package cfg

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/iloc"
)

// CheckDefined verifies definite assignment: on every path from the
// entry, each register is defined before it is used (the frame pointer
// is always defined). The allocator's SSA construction would also catch
// a violation, but this forward dataflow check reports it directly and
// works on allocated code too. CFG edges must be built.
func CheckDefined(rt *iloc.Routine) error {
	nb := len(rt.Blocks)
	n := [iloc.NumClasses]int{rt.NumRegs(iloc.ClassInt), rt.NumRegs(iloc.ClassFlt)}

	// defIn[c][b] = registers of class c definitely defined at entry of b.
	var defIn, defOut [iloc.NumClasses][]*bitset.Set
	for c := 0; c < iloc.NumClasses; c++ {
		defIn[c] = make([]*bitset.Set, nb)
		defOut[c] = make([]*bitset.Set, nb)
		for b := 0; b < nb; b++ {
			defIn[c][b] = bitset.New(n[c])
			defOut[c][b] = bitset.New(n[c])
			if b != rt.Entry().Index {
				// Start from "everything defined" and intersect down.
				for i := 0; i < n[c]; i++ {
					defIn[c][b].Add(i)
					defOut[c][b].Add(i)
				}
			} else {
				defIn[c][b].Add(0) // fp
				transfer(rt.Blocks[b], iloc.Class(c), defIn[c][b], defOut[c][b])
			}
		}
	}

	rpo := ReversePostorder(rt)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == rt.Entry() {
				continue
			}
			for c := 0; c < iloc.NumClasses; c++ {
				in := defIn[c][b.Index]
				first := true
				for _, p := range b.Preds {
					if first {
						in.CopyFrom(defOut[c][p.Index])
						first = false
					} else {
						in.IntersectWith(defOut[c][p.Index])
					}
				}
				in.Add(0)
				out := bitset.New(n[c])
				transfer(b, iloc.Class(c), in, out)
				if !out.Equal(defOut[c][b.Index]) {
					defOut[c][b.Index].CopyFrom(out)
					changed = true
				}
			}
		}
	}

	// Final pass: every use must be covered by defIn plus prior defs in
	// the block.
	for _, b := range rt.Blocks {
		var cur [iloc.NumClasses]*bitset.Set
		for c := 0; c < iloc.NumClasses; c++ {
			cur[c] = defIn[c][b.Index].Copy()
		}
		for _, in := range b.Instrs {
			for _, u := range rt.Uses(in) {
				if u.N != 0 && !cur[u.Class].Has(int(u.N)) {
					return fmt.Errorf("cfg: %s/%s: %q uses %s before any definition on some path",
						rt.Name, rt.LabelText(b.Label), rt.InstrString(in), u)
				}
			}
			if d := in.Def(); d.Valid() && d.N != 0 {
				cur[d.Class].Add(int(d.N))
			}
		}
	}
	return nil
}

// transfer computes the defined-out set of a block from its defined-in
// set for one class.
func transfer(b *iloc.Block, c iloc.Class, in, out *bitset.Set) {
	out.CopyFrom(in)
	for _, instr := range b.Instrs {
		if d := instr.Def(); d.Valid() && d.Class == c && d.N != 0 {
			out.Add(int(d.N))
		}
	}
}
