// Package remat implements the rematerialization-tag lattice of §3.2 of
// the paper and its sparse propagation over the SSA graph — the analog of
// Wegman and Zadeck's sparse simple constant algorithm with the modified
// meet:
//
//	any  ⊓ ⊤     = any
//	any  ⊓ ⊥     = ⊥
//	inst ⊓ inst' = inst  if inst = inst' (operand-by-operand)
//	inst ⊓ inst' = ⊥     otherwise
//
// A value tagged with an instruction is never-killed: it can be
// recomputed anywhere by issuing that instruction, because its operands
// (immediates, labels, the reserved frame pointer) are available
// throughout the procedure. A value tagged ⊥ needs a full store/reload
// spill.
package remat

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/iloc"
	"repro/internal/ssa"
)

// Kind is the lattice level of a tag.
type Kind uint8

// Lattice levels.
const (
	Top    Kind = iota // no information yet (copies and φ-nodes start here)
	Inst               // never-killed; rematerialize with Tag.Instr
	Bottom             // must be spilled and restored
)

// Tag is a lattice element. The zero Tag is ⊤. An inst tag holds its
// instruction by value: every register operand of a never-killed
// instruction is the frame pointer, so the opcode and the immediates
// and label say everything, and a tag never points into a routine.
type Tag struct {
	Kind Kind
	// The defining instruction's opcode, label and immediates, when
	// Kind == Inst.
	Op    iloc.Op
	Label iloc.Label
	Imm   int64
	FImm  float64
}

// TopTag and BottomTag construct lattice elements.
func TopTag() Tag    { return Tag{Kind: Top} }
func BottomTag() Tag { return Tag{Kind: Bottom} }

// InstTag returns the inst tag of the never-killed instruction in.
func InstTag(in *iloc.Instr) Tag {
	return Tag{Kind: Inst, Op: in.Op, Label: in.Label, Imm: in.Imm, FImm: in.FImm}
}

// Instr returns the instruction an inst tag rematerializes, defining
// dst: its register operands are the frame pointer.
func (t Tag) Instr(dst iloc.Reg) iloc.Instr {
	in := iloc.Instr{Op: t.Op, Dst: dst, Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}, Label: t.Label, Imm: t.Imm, FImm: t.FImm}
	for i := range t.Op.NSrc() {
		in.Src[i] = iloc.FP
	}
	return in
}

// Rematerializable reports whether the tag allows rematerialization.
func (t Tag) Rematerializable() bool { return t.Kind == Inst }

func (t Tag) String() string {
	switch t.Kind {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	default:
		return fmt.Sprintf("inst(%s)", t.stripDst())
	}
}

func (t Tag) stripDst() string {
	var parts []string
	for range t.Op.NSrc() {
		parts = append(parts, iloc.FP.String())
	}
	if t.Op.HasLabel() {
		// A tag does not know its routine, so a label prints as its
		// index in the routine's label table.
		parts = append(parts, "L"+strconv.Itoa(int(t.Label)))
	}
	if t.Op.HasImm() {
		parts = append(parts, strconv.FormatInt(t.Imm, 10))
	}
	if t.Op.HasFImm() {
		parts = append(parts, strconv.FormatFloat(t.FImm, 'g', -1, 64))
	}
	if len(parts) == 0 {
		return t.Op.String()
	}
	return t.Op.String() + " " + strings.Join(parts, ", ")
}

// Equal reports whether two tags are the same lattice element: inst
// tags compare operand by operand, as the paper's meet requires, and a
// float immediate bit for bit, since 0.0 and -0.0 differ. Destinations
// are no operands: ldi of one constant into two values is one tag.
func Equal(a, b Tag) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind != Inst {
		return true
	}
	return a.Op == b.Op && a.Label == b.Label && a.Imm == b.Imm &&
		math.Float64bits(a.FImm) == math.Float64bits(b.FImm)
}

// Meet is the modified meet operation of §3.2.
func Meet(a, b Tag) Tag {
	switch {
	case a.Kind == Top:
		return b
	case b.Kind == Top:
		return a
	case a.Kind == Bottom || b.Kind == Bottom:
		return BottomTag()
	case Equal(a, b):
		return a
	default:
		return BottomTag()
	}
}

// NeverKilled reports whether the instruction defines a never-killed
// value: it is in the rematerializable opcode class and every register
// operand is the reserved frame pointer (always available). A copy from
// fp also qualifies — it recomputes in one instruction from an
// always-available operand.
func NeverKilled(in *iloc.Instr) bool {
	if in.Op.IsCopy() {
		return in.Op.NSrc() == 1 && in.Src[0].IsFP()
	}
	if !in.Op.RematCandidate() {
		return false
	}
	for i := 0; i < in.Op.NSrc(); i++ {
		if !in.Src[i].IsFP() {
			return false
		}
	}
	return true
}

// initialTag gives a value's tag before propagation, from its defining
// instruction: ⊤ for copies and φ-nodes, inst for never-killed
// instructions, ⊥ for everything else (§3.2).
func initialTag(in *iloc.Instr) Tag {
	switch {
	case in.Op == iloc.OpPhi:
		return TopTag()
	case NeverKilled(in):
		return InstTag(in)
	case in.Op.IsCopy():
		return TopTag()
	default:
		return BottomTag()
	}
}

// Propagate runs the sparse propagation over the SSA value graph and
// returns the final tag of every value (indexed by value number; index 0
// is ⊤ and unused). On a well-formed graph every value ends at Inst or ⊥.
func Propagate(g *ssa.Graph) []Tag {
	var work []int
	return PropagateInto(nil, &work, g)
}

// PropagateInto is Propagate writing the tags into tags' storage and
// keeping its worklist in *work, so a propagation over at most as many
// values as an earlier one allocates nothing. It returns the tags,
// g.NumValues of them.
func PropagateInto(tags []Tag, work *[]int, g *ssa.Graph) []Tag {
	tags = slices.Grow(tags[:0], g.NumValues)[:g.NumValues]
	clear(tags)
	wl := (*work)[:0]
	for v := 1; v < g.NumValues; v++ {
		tags[v] = initialTag(g.DefOf[v])
		if tags[v].Kind != Top {
			wl = append(wl, v)
		}
	}
	for len(wl) > 0 {
		v := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, use := range g.UsesOf[v] {
			if use.Op != iloc.OpPhi && !use.Op.IsCopy() {
				continue
			}
			w := int(use.Dst.N)
			if g.DefOf[w] != use {
				continue // the use is a copy source feeding a different value? impossible in SSA, but be safe
			}
			nt := evaluate(g.Routine, tags, use)
			if !Equal(nt, tags[w]) {
				tags[w] = Meet(tags[w], nt) // monotone: only ever lower
				wl = append(wl, w)
			}
		}
	}
	*work = wl
	return tags
}

// evaluate recomputes the tag of the value the instruction in, of
// routine rt, defines.
func evaluate(rt *iloc.Routine, tags []Tag, in *iloc.Instr) Tag {
	switch {
	case in.Op == iloc.OpPhi:
		t := TopTag()
		for _, a := range rt.PhiArgs(in) {
			t = Meet(t, tags[a.N])
		}
		return t
	case in.Op.IsCopy():
		if NeverKilled(in) {
			return InstTag(in)
		}
		return tags[in.Src[0].N]
	default:
		return initialTag(in)
	}
}
