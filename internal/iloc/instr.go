package iloc

// Reg names a register: a class plus a number. Before allocation the
// number is a virtual register id; after allocation it is a physical
// register (color). Integer register 0 is the reserved frame pointer in
// both spaces. A Reg is 8 bytes; the parser rejects a number above
// MaxRegNum.
type Reg struct {
	Class Class
	N     int32
}

// MaxRegNum is the largest register number a Reg holds.
const MaxRegNum = 1<<31 - 1

// NoReg is the absent register.
var NoReg = Reg{Class: noClass, N: -1}

// FP is the reserved frame pointer register.
var FP = Reg{Class: ClassInt, N: 0}

// Valid reports whether r names a register.
func (r Reg) Valid() bool { return r != NoReg }

// IsFP reports whether r is the reserved frame pointer.
func (r Reg) IsFP() bool { return r == FP }

// String renders r in assembly syntax: r4, f7, or fp.
func (r Reg) String() string {
	var buf [24]byte
	return string(r.appendTo(buf[:0]))
}

// IntReg returns the integer register with number n.
func IntReg(n int) Reg { return Reg{Class: ClassInt, N: int32(n)} }

// FltReg returns the float register with number n.
func FltReg(n int) Reg { return Reg{Class: ClassFlt, N: int32(n)} }

// Label names an entry of its routine's label table (Routine.Labels): a
// block's label, the data item an lda or rload reads, or a callee. It
// names the label, not a block position, so it stays valid when blocks
// are added, removed or reordered.
type Label int32

// PhiArgs locates a φ-node's operands in its routine's PhiSlab: Len
// registers from Off. Operand i is the value flowing in from the i'th
// predecessor of the node's block (indices track Block.Preds).
type PhiArgs struct {
	Off, Len int32
}

// Instr is a single ILOC instruction. Fields beyond Op are meaningful
// only when the op's shape says so (see the Op accessors). It holds no
// pointer and is 64 bytes: labels and φ operands live in tables of the
// routine, which Routine.InstrString and Routine.Uses read.
type Instr struct {
	Op   Op
	Cond Cond // br condition
	// IsSplit marks a copy inserted by renumber to isolate values with
	// different rematerialization tags; only conservative coalescing may
	// remove it.
	IsSplit bool
	// IsSpill marks loads/stores/remats inserted by the spill phase;
	// their targets are tiny live ranges that must not be spilled again.
	IsSpill bool

	Dst    Reg    // result register, NoReg if none
	Src    [2]Reg // register sources (Op.NSrc of them)
	Label  Label  // primary label (lda/rload/call/jmp/br true-target)
	Label2 Label  // br false-target
	Phi    PhiArgs
	Imm    int64 // integer immediate
	FImm   float64
}

// Def returns the register the instruction defines, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

// Convenience constructors used by the builder, the spill phase and tests.

// MakeLdi builds "ldi rD, imm".
func MakeLdi(dst Reg, imm int64) *Instr { return &Instr{Op: OpLdi, Dst: dst, Imm: imm} }

// MakeFldi builds "fldi fD, fimm".
func MakeFldi(dst Reg, f float64) *Instr { return &Instr{Op: OpFldi, Dst: dst, FImm: f} }

// MakeLda builds "lda rD, label".
func MakeLda(dst Reg, label Label) *Instr { return &Instr{Op: OpLda, Dst: dst, Label: label} }

// MakeMov builds the copy appropriate to the class of dst.
func MakeMov(dst, src Reg) *Instr {
	op := OpMov
	if dst.Class == ClassFlt {
		op = OpFmov
	}
	return &Instr{Op: op, Dst: dst, Src: [2]Reg{src, NoReg}}
}

// MakeBin builds a three-register instruction.
func MakeBin(op Op, dst, a, b Reg) *Instr { return &Instr{Op: op, Dst: dst, Src: [2]Reg{a, b}} }

// MakeUn builds a two-register instruction.
func MakeUn(op Op, dst, a Reg) *Instr { return &Instr{Op: op, Dst: dst, Src: [2]Reg{a, NoReg}} }

// MakeImm builds a register+immediate instruction such as addi.
func MakeImm(op Op, dst, a Reg, imm int64) *Instr {
	return &Instr{Op: op, Dst: dst, Src: [2]Reg{a, NoReg}, Imm: imm}
}
