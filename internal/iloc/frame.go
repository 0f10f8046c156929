package iloc

import (
	"cmp"
	"slices"
)

// fpPtr is a register set from fp, and the largest offset it is set to.
type fpPtr struct {
	n   int32
	off int64
}

// LocalWords returns the number of 8-byte frame words the routine's own
// code addresses above fp: the words loads and stores reach off fp,
// directly or through a register set from fp by addi, subi or mov, and
// the word an addi or subi off fp names, rounded up to a whole word.
// When fp or such a register is used any other way (added, stored,
// returned, copied again), the code may reach words no offset names,
// so eight words of slack follow. It is the one count of a routine's
// frame: spill slots start at LocalWords()*8, and the interpreter and
// the C translation size frames from it. It makes two linear walks and
// allocates only when more than eight instructions set a register from
// fp.
func (r *Routine) LocalWords() int {
	var end int64 // the first byte past every word counted
	escapes := false
	var buf [8]fpPtr
	ptrs := buf[:0]
	r.ForEachInstr(func(_ *Block, _ int, in *Instr) {
		base, off := addrBase(in)
		for i, u := range r.Uses(in) {
			switch {
			case !u.IsFP():
			case i == base:
				end = max(end, off+8)
			case in.Op == OpAddi:
				end = max(end, in.Imm+8)
				ptrs = append(ptrs, fpPtr{in.Dst.N, in.Imm})
			case in.Op == OpSubi:
				end = max(end, in.Imm+8)
				ptrs = append(ptrs, fpPtr{in.Dst.N, -in.Imm})
			case in.Op == OpMov:
				ptrs = append(ptrs, fpPtr{in.Dst.N, 0})
			default:
				escapes = true
			}
		}
	})
	if len(ptrs) > 0 {
		slices.SortFunc(ptrs, func(a, b fpPtr) int { return cmp.Or(cmp.Compare(a.n, b.n), cmp.Compare(b.off, a.off)) })
		ptrs = slices.CompactFunc(ptrs, func(a, b fpPtr) bool { return a.n == b.n })
		r.ForEachInstr(func(_ *Block, _ int, in *Instr) {
			base, off := addrBase(in)
			for i, u := range r.Uses(in) {
				j, ok := slices.BinarySearchFunc(ptrs, u.N, func(p fpPtr, n int32) int { return cmp.Compare(p.n, n) })
				switch {
				case u.Class != ClassInt || u.IsFP() || !ok:
				case i == base:
					end = max(end, ptrs[j].off+off+8)
				default:
					escapes = true
				}
			}
		})
	}
	words := 0
	if end > 0 {
		words = int((end-1)/8 + 1)
	}
	if escapes {
		words += 8
	}
	return words
}

// addrBase returns the operand index of the address a load or store
// reads and the offset it adds; -1 for any other instruction.
func addrBase(in *Instr) (int, int64) {
	switch in.Op {
	case OpLoad, OpFload:
		return 0, 0
	case OpLoadai, OpFloadai:
		return 0, in.Imm
	case OpStore, OpFstore:
		return 1, 0
	case OpStoreai, OpFstoreai:
		return 1, in.Imm
	}
	return -1, 0
}
