// Package ctrans translates allocated (or virtual-register) ILOC into the
// instrumented C of the paper's Figure 4. The paper compiled this C and
// linked it into complete programs to collect dynamic counts; here the
// interpreter plays that role, and the translator reproduces the textual
// artifact — one C statement per ILOC instruction with the counter
// increments Figure 4 shows: l++ after loads, s++ after stores, c++ after
// copies, i++ after load-immediates, a++ after add-immediates.
package ctrans

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/iloc"
)

// Translate renders the routine as a complete C function. Integer
// registers become long variables r1..rN, float registers double f1..fN,
// blocks become labels, and static data becomes file-scope arrays.
func Translate(rt *iloc.Routine) (string, error) {
	if err := iloc.Verify(rt, false); err != nil {
		return "", fmt.Errorf("ctrans: %w", err)
	}
	var b strings.Builder

	retType := "long"
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Op == iloc.OpRetf {
			retType = "double"
		}
	})

	b.WriteString("#include <math.h>\n\n")
	b.WriteString("/* dynamic instruction counters (Figure 4) */\n")
	b.WriteString("long l, s, c, i, a;\n\n")
	usesDisplay, usesCalls := false, false
	callees := map[string]bool{}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		switch in.Op {
		case iloc.OpLdisp:
			usesDisplay = true
		case iloc.OpCall:
			usesCalls = true
			callees[rt.LabelText(in.Label)] = true
		case iloc.OpSetarg, iloc.OpFsetarg, iloc.OpGetret, iloc.OpFgetret:
			usesCalls = true
		}
	})
	if usesDisplay {
		b.WriteString("extern long display[];\n\n")
	}
	if usesCalls {
		b.WriteString("/* calling convention: argument slots and return latch */\n")
		b.WriteString("extern long iarg[]; extern double farg[];\n")
		b.WriteString("extern long iret; extern double fret;\n")
		names := make([]string, 0, len(callees))
		for n := range callees {
			if n != rt.Name { // a self-call uses the definition itself
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "extern void %s(void);\n", n)
		}
		b.WriteString("\n")
	}

	for _, d := range rt.Data {
		qual := ""
		if d.ReadOnly {
			qual = "const "
		}
		elem := "long"
		if d.IsFloat {
			elem = "double"
		}
		fmt.Fprintf(&b, "static %s%s %s[%d]", qual, elem, d.Label, d.Words)
		if len(d.Init) > 0 {
			b.WriteString(" = {")
			for i, v := range d.Init {
				if i > 0 {
					b.WriteString(", ")
				}
				if d.IsFloat {
					b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				} else {
					b.WriteString(strconv.FormatInt(int64(v), 10))
				}
			}
			b.WriteString("}")
		}
		b.WriteString(";\n")
	}
	if len(rt.Data) > 0 {
		b.WriteString("\n")
	}

	// The frame holds the routine's own words and its spill slots, with
	// 64 words to spare.
	fmt.Fprintf(&b, "static long frame[%d];\n\n", max(rt.FrameWords, rt.LocalWords())+64)

	// Signature: one parameter per declared param.
	var params []string
	for i, p := range rt.Params {
		t := "long"
		if p.Reg.Class == iloc.ClassFlt {
			t = "double"
		}
		params = append(params, fmt.Sprintf("%s p%d", t, i))
	}
	fmt.Fprintf(&b, "%s %s(%s)\n{\n", retType, rt.Name, strings.Join(params, ", "))

	// Register declarations ("some additional C is required for ...
	// declarations of the register variables", §5).
	fmt.Fprintf(&b, "    register long fp = (long) frame;\n")
	for n := 1; n < rt.NumRegs(iloc.ClassInt); n++ {
		fmt.Fprintf(&b, "    register long r%d;\n", n)
	}
	for n := 1; n < rt.NumRegs(iloc.ClassFlt); n++ {
		fmt.Fprintf(&b, "    register double f%d;\n", n)
	}
	b.WriteString("\n")

	for _, blk := range rt.Blocks {
		fmt.Fprintf(&b, "%s:\n", cLabel(rt.LabelText(blk.Label)))
		emitted := 0
		for _, in := range blk.Instrs {
			stmt, err := stmtFor(rt, in)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "    %s\n", stmt)
			emitted++
		}
		if emitted == 0 {
			b.WriteString("    ;\n")
		}
	}
	if retType == "double" {
		b.WriteString("    return 0.0;\n")
	} else {
		b.WriteString("    return 0;\n")
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// cLabel makes a block label a valid C identifier.
func cLabel(l string) string {
	return "L_" + strings.NewReplacer(".", "_", "-", "_").Replace(l)
}

func reg(r iloc.Reg) string {
	if r.IsFP() {
		return "fp"
	}
	if r.Class == iloc.ClassInt {
		return "r" + strconv.Itoa(int(r.N))
	}
	return "f" + strconv.Itoa(int(r.N))
}

func stmtFor(rt *iloc.Routine, in *iloc.Instr) (string, error) {
	d := reg(in.Dst)
	label := rt.LabelText(in.Label)
	s0, s1 := "", ""
	if in.Op.NSrc() > 0 {
		s0 = reg(in.Src[0])
	}
	if in.Op.NSrc() > 1 {
		s1 = reg(in.Src[1])
	}
	imm := strconv.FormatInt(in.Imm, 10)

	bin := func(op string) string { return fmt.Sprintf("%s = %s %s %s;", d, s0, op, s1) }
	switch in.Op {
	case iloc.OpNop:
		return ";", nil
	case iloc.OpAdd, iloc.OpFadd:
		return bin("+"), nil
	case iloc.OpSub, iloc.OpFsub:
		return bin("-"), nil
	case iloc.OpMul, iloc.OpFmul:
		return bin("*"), nil
	case iloc.OpDiv, iloc.OpFdiv:
		return bin("/"), nil
	case iloc.OpAnd:
		return bin("&"), nil
	case iloc.OpOr:
		return bin("|"), nil
	case iloc.OpXor:
		return bin("^"), nil
	case iloc.OpShl:
		return bin("<<"), nil
	case iloc.OpShr:
		return fmt.Sprintf("%s = (long) ((unsigned long) %s >> %s);", d, s0, s1), nil
	case iloc.OpNeg:
		return fmt.Sprintf("%s = -%s;", d, s0), nil
	case iloc.OpFneg:
		return fmt.Sprintf("%s = -%s;", d, s0), nil
	case iloc.OpFabs:
		return fmt.Sprintf("%s = fabs(%s);", d, s0), nil
	case iloc.OpAddi:
		return fmt.Sprintf("%s = %s + (%s); a++;", d, s0, imm), nil
	case iloc.OpSubi:
		return fmt.Sprintf("%s = %s - (%s); a++;", d, s0, imm), nil
	case iloc.OpMuli:
		return fmt.Sprintf("%s = %s * (%s); a++;", d, s0, imm), nil
	case iloc.OpLdi:
		return fmt.Sprintf("%s = (long) (%s); i++;", d, imm), nil
	case iloc.OpFldi:
		return fmt.Sprintf("%s = %s; i++;", d, strconv.FormatFloat(in.FImm, 'g', -1, 64)), nil
	case iloc.OpLda:
		return fmt.Sprintf("%s = (long) %s; i++;", d, label), nil
	case iloc.OpMov, iloc.OpFmov:
		return fmt.Sprintf("%s = %s; c++;", d, s0), nil

	case iloc.OpLoad:
		return fmt.Sprintf("%s = *((long *) (%s)); l++;", d, s0), nil
	case iloc.OpLoadai:
		return fmt.Sprintf("%s = *((long *) (%s + %s)); l++;", d, s0, imm), nil
	case iloc.OpLoadao:
		return fmt.Sprintf("%s = *((long *) (%s + %s)); l++;", d, s0, s1), nil
	case iloc.OpFload:
		return fmt.Sprintf("%s = *((double *) (%s)); l++;", d, s0), nil
	case iloc.OpFloadai:
		return fmt.Sprintf("%s = *((double *) (%s + %s)); l++;", d, s0, imm), nil
	case iloc.OpFloadao:
		return fmt.Sprintf("%s = *((double *) (%s + %s)); l++;", d, s0, s1), nil
	case iloc.OpStore:
		return fmt.Sprintf("*((long *) (%s)) = %s; s++;", s1, s0), nil
	case iloc.OpStoreai:
		return fmt.Sprintf("*((long *) (%s + %s)) = %s; s++;", s1, imm, s0), nil
	case iloc.OpFstore:
		return fmt.Sprintf("*((double *) (%s)) = %s; s++;", s1, s0), nil
	case iloc.OpFstoreai:
		return fmt.Sprintf("*((double *) (%s + %s)) = %s; s++;", s1, imm, s0), nil
	case iloc.OpRload:
		return fmt.Sprintf("%s = %s[%d]; l++;", d, label, in.Imm/8), nil
	case iloc.OpFrload:
		return fmt.Sprintf("%s = %s[%d]; l++;", d, label, in.Imm/8), nil

	case iloc.OpCvtif:
		return fmt.Sprintf("%s = (double) %s;", d, s0), nil
	case iloc.OpCvtfi:
		return fmt.Sprintf("%s = (long) %s;", d, s0), nil
	case iloc.OpFcmp:
		return fmt.Sprintf("%s = (%s < %s) ? -1 : ((%s > %s) ? 1 : 0);", d, s0, s1, s0, s1), nil

	case iloc.OpGetparam:
		return fmt.Sprintf("%s = p%d; l++;", d, in.Imm), nil
	case iloc.OpFgetparam:
		return fmt.Sprintf("%s = p%d; l++;", d, in.Imm), nil
	case iloc.OpLdisp:
		return fmt.Sprintf("%s = display[%d]; l++;", d, in.Imm), nil

	case iloc.OpSetarg:
		return fmt.Sprintf("iarg[%d] = %s; s++;", in.Imm, s0), nil
	case iloc.OpFsetarg:
		return fmt.Sprintf("farg[%d] = %s; s++;", in.Imm, s0), nil
	case iloc.OpCall:
		if label == rt.Name {
			// Self-recursion: the definition's real signature is known,
			// so route the slots and latch through it directly.
			var argv []string
			for i, p := range rt.Params {
				if p.Reg.Class == iloc.ClassFlt {
					argv = append(argv, fmt.Sprintf("farg[%d]", i))
				} else {
					argv = append(argv, fmt.Sprintf("iarg[%d]", i))
				}
			}
			latch := "iret"
			rt.ForEachInstr(func(_ *iloc.Block, _ int, x *iloc.Instr) {
				if x.Op == iloc.OpRetf {
					latch = "fret"
				}
			})
			return fmt.Sprintf("%s = %s(%s);", latch, label, strings.Join(argv, ", ")), nil
		}
		return fmt.Sprintf("%s();", label), nil
	case iloc.OpGetret:
		return fmt.Sprintf("%s = iret;", d), nil
	case iloc.OpFgetret:
		return fmt.Sprintf("%s = fret;", d), nil

	case iloc.OpJmp:
		return fmt.Sprintf("goto %s;", cLabel(label)), nil
	case iloc.OpBr:
		var op string
		switch in.Cond {
		case iloc.CondLT:
			op = "<"
		case iloc.CondLE:
			op = "<="
		case iloc.CondGT:
			op = ">"
		case iloc.CondGE:
			op = ">="
		case iloc.CondEQ:
			op = "=="
		case iloc.CondNE:
			op = "!="
		}
		return fmt.Sprintf("if (%s %s 0) goto %s; else goto %s;", s0, op, cLabel(label), cLabel(rt.LabelText(in.Label2))), nil
	case iloc.OpRet:
		return "return 0;", nil
	case iloc.OpRetr:
		return fmt.Sprintf("return %s;", s0), nil
	case iloc.OpRetf:
		return fmt.Sprintf("return %s;", s0), nil
	}
	return "", fmt.Errorf("ctrans: cannot translate %s", rt.InstrString(in))
}
