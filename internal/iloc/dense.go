package iloc

import "slices"

// RegNames maps the registers DenseRegs renamed back to the numbers the
// code had before: m[c][n] is the earlier number of class-c register n.
// A class that kept its numbers has a nil entry.
type RegNames [NumClasses][]int32

// Input returns the name register r had before DenseRegs renamed it.
func (m *RegNames) Input(r Reg) Reg {
	if r.Class < NumClasses && r.N >= 0 && int(r.N) < len(m[r.Class]) {
		r.N = m[r.Class][r.N]
	}
	return r
}

// SparseRegs reports whether DenseRegs would rename some class: one
// whose NextReg exceeds three registers per instruction, the most an
// instruction names, plus the parameters plus one.
func (r *Routine) SparseRegs() bool {
	n := r.NumInstrs()
	return slices.ContainsFunc(r.NextReg[:], func(next int) bool { return r.sparse(next, n) })
}

func (r *Routine) sparse(next, instrs int) bool { return next > 3*instrs+len(r.Params)+1 }

// DenseRegs renames the registers of every class SparseRegs finds
// sparse to 1..R in ascending order, in place, so tables sized by
// NextReg grow with the code, not with its largest register number.
// Order is kept, so every choice made by register number comes out the
// same, and the frame pointer keeps its number. It returns the earlier
// names. An allocated routine's numbers are colors: never rename one.
func (r *Routine) DenseRegs() RegNames {
	var m RegNames
	instrs := r.NumInstrs()
	for c := range NumClasses {
		if !r.sparse(r.NextReg[c], instrs) {
			continue
		}
		names := []int32{0}
		r.forEachRegRef(Class(c), func(reg *Reg) { names = append(names, reg.N) })
		slices.Sort(names)
		names = slices.Compact(names)
		r.forEachRegRef(Class(c), func(reg *Reg) {
			n, _ := slices.BinarySearch(names, reg.N)
			reg.N = int32(n)
		})
		r.NextReg[c] = len(names)
		m[c] = names
	}
	return m
}

// forEachRegRef calls f with every class-c register operand of r other
// than the frame pointer: parameters, sources, φ arguments and
// destinations.
func (r *Routine) forEachRegRef(c Class, f func(reg *Reg)) {
	visit := func(reg *Reg) {
		if reg.Class == c && reg.N > 0 {
			f(reg)
		}
	}
	for i := range r.Params {
		visit(&r.Params[i].Reg)
	}
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			uses := r.Uses(in)
			for i := range uses {
				visit(&uses[i])
			}
			if in.Op.HasDst() {
				visit(&in.Dst)
			}
		}
	}
}
