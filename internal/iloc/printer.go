package iloc

import "strconv"

// Print renders the routine in the textual form accepted by Parse.
func Print(r *Routine) string {
	return string(AppendPrint(make([]byte, 0, printSize(r)), r))
}

// printSize estimates the length of r's printed form.
func printSize(r *Routine) int {
	n := 64
	for _, d := range r.Data {
		n += 32 + 8*len(d.Init)
	}
	for _, b := range r.Blocks {
		n += len(r.LabelText(b.Label)) + 2 + 32*len(b.Instrs)
	}
	return n
}

// AppendPrint appends the textual form of r accepted by Parse to dst
// and returns the extended buffer. It is the one formatter of the
// package: Print, Routine.InstrString and Reg.String all render
// through it.
func AppendPrint(dst []byte, r *Routine) []byte {
	dst = append(dst, "routine "...)
	dst = append(dst, r.Name...)
	dst = append(dst, '(')
	for i, p := range r.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = p.Reg.appendTo(dst)
	}
	dst = append(dst, ")\n"...)
	for _, d := range r.Data {
		dst = append(dst, "data "...)
		dst = append(dst, d.Label...)
		if d.ReadOnly {
			dst = append(dst, " ro "...)
		} else {
			dst = append(dst, " rw "...)
		}
		dst = strconv.AppendInt(dst, int64(d.Words), 10)
		if len(d.Init) > 0 {
			dst = append(dst, " ="...)
			for _, v := range d.Init {
				dst = append(dst, ' ')
				if d.IsFloat {
					dst = appendFloat(dst, v)
				} else {
					dst = strconv.AppendInt(dst, int64(v), 10)
				}
			}
		}
		dst = append(dst, '\n')
	}
	for _, blk := range r.Blocks {
		dst = append(dst, r.LabelText(blk.Label)...)
		dst = append(dst, ":\n"...)
		for _, in := range blk.Instrs {
			dst = append(dst, "    "...)
			dst = r.appendInstr(dst, in)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// appendTo appends r in assembly syntax: r4, f7, or fp.
func (r Reg) appendTo(dst []byte) []byte {
	switch {
	case !r.Valid():
		return append(dst, "<none>"...)
	case r.IsFP():
		return append(dst, "fp"...)
	case r.Class == ClassInt:
		dst = append(dst, 'r')
	default:
		dst = append(dst, 'f')
	}
	return strconv.AppendInt(dst, int64(r.N), 10)
}

// InstrString renders in, an instruction of r, in the canonical
// assembly syntax used by the parser and printer.
func (r *Routine) InstrString(in *Instr) string {
	var buf [64]byte
	return string(r.appendInstr(buf[:0], in))
}

// appendInstr appends in, an instruction of r, in the canonical
// assembly syntax: the mnemonic, then its operands separated by ", ",
// then the split and spill markers as comments.
func (r *Routine) appendInstr(dst []byte, in *Instr) []byte {
	dst = append(dst, in.Op.String()...)
	n := 0 // operands written
	sep := func(dst []byte) []byte {
		n++
		if n == 1 {
			return append(dst, ' ')
		}
		return append(dst, ", "...)
	}
	switch in.Op {
	case OpPhi:
		dst = in.Dst.appendTo(sep(dst))
		if r.phiInSlab(in) {
			for _, a := range r.PhiArgs(in) {
				dst = a.appendTo(sep(dst))
			}
		}
	case OpBr:
		dst = append(dst, ' ')
		dst = append(dst, in.Cond.String()...)
		dst = in.Src[0].appendTo(sep(dst))
		dst = append(sep(dst), r.LabelText(in.Label)...)
		dst = append(sep(dst), r.LabelText(in.Label2)...)
	case OpJmp:
		dst = append(sep(dst), r.LabelText(in.Label)...)
	default:
		if in.Op.HasDst() {
			dst = in.Dst.appendTo(sep(dst))
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			dst = in.Src[i].appendTo(sep(dst))
		}
		if in.Op.HasLabel() {
			dst = append(sep(dst), r.LabelText(in.Label)...)
		}
		if in.Op.HasImm() {
			dst = strconv.AppendInt(sep(dst), in.Imm, 10)
		}
		if in.Op.HasFImm() {
			dst = appendFloat(sep(dst), in.FImm)
		}
	}
	if in.IsSplit {
		dst = append(dst, "    ; split"...)
	}
	if in.IsSpill {
		dst = append(dst, "    ; spill"...)
	}
	return dst
}

// appendFloat appends f so that it reads back as a float: as a float
// immediate to the parser, and as a C double to the translator.
func appendFloat(dst []byte, f float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	for _, c := range dst[start:] {
		// '.' and 'e' make a float; 'I' and 'N' spell Inf and NaN.
		if c == '.' || c == 'e' || c == 'E' || c == 'I' || c == 'N' {
			return dst
		}
	}
	return append(dst, ".0"...)
}
