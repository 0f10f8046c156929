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
//     only read whole words of read-only data;
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
	// isBlock[l] reports whether label l labels a block.
	isBlock := make([]bool, len(r.Labels))
	for _, b := range r.Blocks {
		if b.Label < 0 || int(b.Label) >= len(r.Labels) {
			return fmt.Errorf("%s: block label %d outside the label table", r.Name, b.Label)
		}
		if isBlock[b.Label] {
			return fmt.Errorf("%s: duplicate block label %q", r.Name, r.Labels[b.Label])
		}
		isBlock[b.Label] = true
	}
	data := make(map[string]*Data, len(r.Data))
	for i := range r.Data {
		if _, dup := data[r.Data[i].Label]; !dup {
			data[r.Data[i].Label] = &r.Data[i]
		}
	}
	for bi, b := range r.Blocks {
		inPhiHead := true
		for ii, in := range b.Instrs {
			var err error
			if in.Op == OpPhi {
				err = checkPhi(r, b, in, allowSSA, inPhiHead)
			} else {
				inPhiHead = false
				err = checkInstr(r, b, ii, in, isBlock, data)
			}
			if err != nil {
				// Every allocation verifies its input, so the location
				// is formatted here, on failure only.
				return fmt.Errorf("%s/%s[%d] %q: %w", r.Name, r.Labels[b.Label], ii, r.InstrString(in), err)
			}
		}
		if b.Terminator() == nil && bi == len(r.Blocks)-1 {
			return fmt.Errorf("%s: final block %s does not end in a terminator", r.Name, r.Labels[b.Label])
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
	if !r.phiInSlab(in) {
		return errors.New("φ without operands")
	}
	args := r.PhiArgs(in)
	if len(b.Preds) > 0 && len(args) != len(b.Preds) {
		return fmt.Errorf("φ has %d args for %d preds", len(args), len(b.Preds))
	}
	for _, a := range args {
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
// isBlock marks the labels of the routine's blocks and data holds its
// data items.
func checkInstr(r *Routine, b *Block, ii int, in *Instr, isBlock []bool, data map[string]*Data) error {
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
	isBlockLabel := func(l Label) bool { return l >= 0 && int(l) < len(isBlock) && isBlock[l] }
	label := r.LabelText(in.Label)
	switch in.Op {
	case OpJmp:
		if !isBlockLabel(in.Label) {
			return fmt.Errorf("jump to unknown label %q", label)
		}
	case OpBr:
		if in.Cond == CondNone {
			return errors.New("br without condition")
		}
		if !isBlockLabel(in.Label) || !isBlockLabel(in.Label2) {
			return errors.New("branch to unknown label")
		}
	case OpLda:
		if data[label] == nil {
			return fmt.Errorf("lda of unknown data %q", label)
		}
	case OpRload, OpFrload:
		d := data[label]
		if d == nil {
			return fmt.Errorf("load from unknown data %q", label)
		}
		if !d.ReadOnly {
			return fmt.Errorf("%s from writable data %q", in.Op, label)
		}
		if in.Imm < 0 || in.Imm/8 >= int64(d.Words) {
			return fmt.Errorf("offset %d outside %q", in.Imm, label)
		}
		if in.Imm%8 != 0 {
			return fmt.Errorf("%s offset %d is not a multiple of 8", in.Op, in.Imm)
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
		if label == "" {
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
	if !r.Allocated && int(reg.N) >= r.NumRegs(reg.Class) {
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
