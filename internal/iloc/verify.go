package iloc

import (
	"errors"
	"fmt"
)

// Verify checks the structural invariants of a routine:
//
//   - every block ends in a terminator, except that a non-final block may
//     fall through to the next block;
//   - branch and jump targets name existing blocks;
//   - lda/rload/frload labels name existing data items, and rload/frload
//     only read read-only data;
//   - operand registers have the class the op table demands, fp is never
//     written, and register numbers are within the routine's space;
//   - φ-nodes appear only when allowSSA is set, only at the head of a
//     block, with one argument per predecessor.
//
// It returns the first violation found.
func Verify(r *Routine, allowSSA bool) error {
	if len(r.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", r.Name)
	}
	labels := make(map[string]bool, len(r.Blocks))
	for _, b := range r.Blocks {
		if labels[b.Label] {
			return fmt.Errorf("%s: duplicate block label %q", r.Name, b.Label)
		}
		labels[b.Label] = true
	}
	for bi, b := range r.Blocks {
		inPhiHead := true
		for ii, in := range b.Instrs {
			var err error
			if in.Op == OpPhi {
				err = checkPhi(r, b, in, allowSSA, inPhiHead)
			} else {
				inPhiHead = false
				err = checkInstr(r, b, ii, in, labels)
			}
			if err != nil {
				// Every allocation verifies its input, so the location
				// is formatted here, on failure only.
				return fmt.Errorf("%s/%s[%d] %q: %w", r.Name, b.Label, ii, in, err)
			}
		}
		if b.Terminator() == nil && bi == len(r.Blocks)-1 {
			return fmt.Errorf("%s: final block %s does not end in a terminator", r.Name, b.Label)
		}
	}
	return nil
}

// checkPhi checks φ-node in of block b; inPhiHead reports whether only
// φ-nodes precede it in the block.
func checkPhi(r *Routine, b *Block, in *Instr, allowSSA, inPhiHead bool) error {
	if !allowSSA {
		return errors.New("φ outside SSA form")
	}
	if !inPhiHead {
		return errors.New("φ not at block head")
	}
	if in.Phi == nil {
		return errors.New("φ without operands")
	}
	if len(b.Preds) > 0 && len(in.Phi.Args) != len(b.Preds) {
		return fmt.Errorf("φ has %d args for %d preds", len(in.Phi.Args), len(b.Preds))
	}
	for _, a := range in.Phi.Args {
		if err := checkReg(r, a, in.Dst.Class); err != nil {
			return err
		}
	}
	if err := checkReg(r, in.Dst, in.Dst.Class); err != nil {
		return err
	}
	if in.Dst.IsFP() {
		return errors.New("φ writes fp")
	}
	return nil
}

// checkInstr checks instruction ii of block b, which is not a φ-node;
// labels holds the routine's block labels.
func checkInstr(r *Routine, b *Block, ii int, in *Instr, labels map[string]bool) error {
	if in.Op >= numOps {
		return errors.New("bad opcode")
	}
	if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
		return errors.New("terminator not last in block")
	}
	if in.Op.HasDst() {
		if err := checkReg(r, in.Dst, in.Op.DstClass()); err != nil {
			return fmt.Errorf("dst: %w", err)
		}
		if in.Dst.IsFP() {
			return errors.New("writes fp")
		}
	}
	for i := 0; i < in.Op.NSrc(); i++ {
		if err := checkReg(r, in.Src[i], in.Op.SrcClass(i)); err != nil {
			return fmt.Errorf("src%d: %w", i, err)
		}
	}
	switch in.Op {
	case OpJmp:
		if !labels[in.Label] {
			return fmt.Errorf("jump to unknown label %q", in.Label)
		}
	case OpBr:
		if in.Cond == CondNone {
			return errors.New("br without condition")
		}
		if !labels[in.Label] || !labels[in.Label2] {
			return errors.New("branch to unknown label")
		}
	case OpLda:
		if r.DataByLabel(in.Label) == nil {
			return fmt.Errorf("lda of unknown data %q", in.Label)
		}
	case OpRload, OpFrload:
		d := r.DataByLabel(in.Label)
		if d == nil {
			return fmt.Errorf("load from unknown data %q", in.Label)
		}
		if !d.ReadOnly {
			return fmt.Errorf("%s from writable data %q", in.Op, in.Label)
		}
		if in.Imm < 0 || in.Imm/8 >= int64(d.Words) {
			return fmt.Errorf("offset %d outside %q", in.Imm, in.Label)
		}
	case OpGetparam:
		return checkParamIndex(r, in.Imm, ClassInt)
	case OpFgetparam:
		return checkParamIndex(r, in.Imm, ClassFlt)
	case OpSetarg, OpFsetarg, OpLdisp:
		if in.Imm < 0 || in.Imm > 255 {
			return fmt.Errorf("slot index %d out of range", in.Imm)
		}
	case OpCall:
		if in.Label == "" {
			return errors.New("call without a target")
		}
		// The target routine is resolved at link/execution time.
	}
	return nil
}

func checkReg(r *Routine, reg Reg, want Class) error {
	if !reg.Valid() {
		return fmt.Errorf("missing register operand")
	}
	if reg.Class != want {
		return fmt.Errorf("register %s has class %s, want %s", reg, reg.Class, want)
	}
	if !r.Allocated && reg.N >= r.NumRegs(reg.Class) {
		return fmt.Errorf("register %s outside virtual space [0,%d)", reg, r.NumRegs(reg.Class))
	}
	return nil
}

func checkParamIndex(r *Routine, i int64, want Class) error {
	if i < 0 || i >= int64(len(r.Params)) {
		return fmt.Errorf("parameter index %d out of range", i)
	}
	if r.Params[i].Reg.Class != want {
		return fmt.Errorf("parameter %d has class %s", i, r.Params[i].Reg.Class)
	}
	return nil
}
