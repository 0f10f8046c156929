package iloc

import "fmt"

// Builder constructs routines programmatically. The spill phase, the
// benchmark suite and tests use it instead of text when they need to hold
// on to register handles.
type Builder struct {
	rt     *Routine
	cur    *Block
	labels *LabelIndex
	blocks []*Block // per label: the block it labels, if any
}

// NewBuilder starts a routine with the given name.
func NewBuilder(name string) *Builder {
	rt := &Routine{Name: name}
	return &Builder{rt: rt, labels: NewLabelIndex(rt)}
}

// Label returns the routine's label with the given text, adding it to
// the label table if it is new.
func (b *Builder) Label(text string) Label {
	l := b.labels.Intern(text)
	for len(b.blocks) <= int(l) {
		b.blocks = append(b.blocks, nil)
	}
	return l
}

// IntParam declares an integer parameter and returns its register.
func (b *Builder) IntParam() Reg {
	r := b.rt.NewReg(ClassInt)
	b.rt.Params = append(b.rt.Params, Param{Reg: r})
	return r
}

// FltParam declares a float parameter and returns its register.
func (b *Builder) FltParam() Reg {
	r := b.rt.NewReg(ClassFlt)
	b.rt.Params = append(b.rt.Params, Param{Reg: r})
	return r
}

// Int returns a fresh integer virtual register.
func (b *Builder) Int() Reg { return b.rt.NewReg(ClassInt) }

// Flt returns a fresh float virtual register.
func (b *Builder) Flt() Reg { return b.rt.NewReg(ClassFlt) }

// Data adds a static data item and returns its label.
func (b *Builder) Data(label string, readOnly bool, words int, isFloat bool, init ...float64) string {
	b.rt.Data = append(b.rt.Data, Data{
		Label: label, ReadOnly: readOnly, Words: words, IsFloat: isFloat,
		Init: append([]float64(nil), init...),
	})
	return label
}

// Block starts (or continues) the basic block with the given label.
func (b *Builder) Block(label string) {
	l := b.Label(label)
	if blk := b.blocks[l]; blk != nil {
		b.cur = blk
		return
	}
	blk := &Block{Label: l, Index: len(b.rt.Blocks)}
	b.rt.Blocks = append(b.rt.Blocks, blk)
	b.blocks[l] = blk
	b.cur = blk
}

// Emit appends an instruction to the current block.
func (b *Builder) Emit(in *Instr) *Instr {
	if b.cur == nil {
		b.Block("entry")
	}
	if t := b.cur.Terminator(); t != nil {
		panic(fmt.Sprintf("iloc.Builder: emit after terminator in %s", b.rt.LabelText(b.cur.Label)))
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

// Op shorthands; each returns the emitted instruction.

func (b *Builder) Ldi(dst Reg, imm int64) *Instr    { return b.Emit(MakeLdi(dst, imm)) }
func (b *Builder) Fldi(dst Reg, f float64) *Instr   { return b.Emit(MakeFldi(dst, f)) }
func (b *Builder) Lda(dst Reg, label string) *Instr { return b.Emit(MakeLda(dst, b.Label(label))) }
func (b *Builder) Mov(dst, src Reg) *Instr          { return b.Emit(MakeMov(dst, src)) }

func (b *Builder) Bin(op Op, dst, x, y Reg) *Instr { return b.Emit(MakeBin(op, dst, x, y)) }
func (b *Builder) Un(op Op, dst, x Reg) *Instr     { return b.Emit(MakeUn(op, dst, x)) }

func (b *Builder) Add(dst, x, y Reg) *Instr  { return b.Bin(OpAdd, dst, x, y) }
func (b *Builder) Sub(dst, x, y Reg) *Instr  { return b.Bin(OpSub, dst, x, y) }
func (b *Builder) Mul(dst, x, y Reg) *Instr  { return b.Bin(OpMul, dst, x, y) }
func (b *Builder) Div(dst, x, y Reg) *Instr  { return b.Bin(OpDiv, dst, x, y) }
func (b *Builder) Fadd(dst, x, y Reg) *Instr { return b.Bin(OpFadd, dst, x, y) }
func (b *Builder) Fsub(dst, x, y Reg) *Instr { return b.Bin(OpFsub, dst, x, y) }
func (b *Builder) Fmul(dst, x, y Reg) *Instr { return b.Bin(OpFmul, dst, x, y) }
func (b *Builder) Fdiv(dst, x, y Reg) *Instr { return b.Bin(OpFdiv, dst, x, y) }
func (b *Builder) Fabs(dst, x Reg) *Instr    { return b.Un(OpFabs, dst, x) }

func (b *Builder) Addi(dst, x Reg, imm int64) *Instr { return b.Emit(MakeImm(OpAddi, dst, x, imm)) }
func (b *Builder) Subi(dst, x Reg, imm int64) *Instr { return b.Emit(MakeImm(OpSubi, dst, x, imm)) }
func (b *Builder) Muli(dst, x Reg, imm int64) *Instr { return b.Emit(MakeImm(OpMuli, dst, x, imm)) }

func (b *Builder) Load(dst, addr Reg) *Instr  { return b.Emit(MakeUn(OpLoad, dst, addr)) }
func (b *Builder) Fload(dst, addr Reg) *Instr { return b.Emit(MakeUn(OpFload, dst, addr)) }
func (b *Builder) Loadai(dst, addr Reg, off int64) *Instr {
	return b.Emit(MakeImm(OpLoadai, dst, addr, off))
}
func (b *Builder) Floadai(dst, addr Reg, off int64) *Instr {
	return b.Emit(MakeImm(OpFloadai, dst, addr, off))
}
func (b *Builder) Loadao(dst, addr, off Reg) *Instr  { return b.Bin(OpLoadao, dst, addr, off) }
func (b *Builder) Floadao(dst, addr, off Reg) *Instr { return b.Bin(OpFloadao, dst, addr, off) }

func (b *Builder) Store(val, addr Reg) *Instr  { return b.Emit(MakeBin(OpStore, NoReg, val, addr)) }
func (b *Builder) Fstore(val, addr Reg) *Instr { return b.Emit(MakeBin(OpFstore, NoReg, val, addr)) }
func (b *Builder) Storeai(val, addr Reg, off int64) *Instr {
	in := MakeBin(OpStoreai, NoReg, val, addr)
	in.Imm = off
	return b.Emit(in)
}
func (b *Builder) Fstoreai(val, addr Reg, off int64) *Instr {
	in := MakeBin(OpFstoreai, NoReg, val, addr)
	in.Imm = off
	return b.Emit(in)
}
func (b *Builder) Getparam(dst Reg, i int64) *Instr {
	return b.Emit(&Instr{Op: OpGetparam, Dst: dst, Src: [2]Reg{NoReg, NoReg}, Imm: i})
}
func (b *Builder) Fgetparam(dst Reg, i int64) *Instr {
	return b.Emit(&Instr{Op: OpFgetparam, Dst: dst, Src: [2]Reg{NoReg, NoReg}, Imm: i})
}

func (b *Builder) Jmp(label string) *Instr {
	return b.Emit(&Instr{Op: OpJmp, Dst: NoReg, Label: b.Label(label)})
}
func (b *Builder) Br(cond Cond, r Reg, ifTrue, ifFalse string) *Instr {
	return b.Emit(&Instr{Op: OpBr, Dst: NoReg, Src: [2]Reg{r, NoReg}, Cond: cond, Label: b.Label(ifTrue), Label2: b.Label(ifFalse)})
}
func (b *Builder) Ret() *Instr { return b.Emit(&Instr{Op: OpRet, Dst: NoReg}) }
func (b *Builder) Retr(r Reg) *Instr {
	return b.Emit(&Instr{Op: OpRetr, Dst: NoReg, Src: [2]Reg{r, NoReg}})
}
func (b *Builder) Retf(f Reg) *Instr {
	return b.Emit(&Instr{Op: OpRetf, Dst: NoReg, Src: [2]Reg{f, NoReg}})
}

// Routine finalizes and returns the routine.
func (b *Builder) Routine() *Routine {
	b.rt.Reindex()
	return b.rt
}
