package iloc

import (
	"slices"
	"strconv"
)

// Block is a basic block: a label, a straight-line instruction sequence
// ending in at most one terminator, and its CFG edges. Edges are filled in
// by cfg.Build.
type Block struct {
	Index  int   // position in Routine.Blocks
	Label  Label // the block's label in Routine.Labels
	Instrs []*Instr

	Succs []*Block
	Preds []*Block

	Depth int // loop nesting depth (cfg.Analyze); weights spill costs 10^Depth
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil (control falls through to the next block).
func (b *Block) Terminator() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// InsertBefore inserts instr at position i in the block.
func (b *Block) InsertBefore(i int, instr *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = instr
}

// AppendBeforeTerminator adds instr at the end of the block but before its
// terminator, if any. Split copies and remat code land here.
func (b *Block) AppendBeforeTerminator(instr *Instr) {
	if t := b.Terminator(); t != nil {
		b.InsertBefore(len(b.Instrs)-1, instr)
		return
	}
	b.Instrs = append(b.Instrs, instr)
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Param describes a routine parameter: the virtual register it arrives in.
// Parameters also live in known frame slots, which is what makes getparam
// rematerializable.
type Param struct {
	Reg Reg
}

// Data is one item in the routine's static data area. Values are 8-byte
// words; Float selects the interpretation of the initializer.
type Data struct {
	Label    string
	ReadOnly bool
	Words    int       // size in 8-byte words
	Init     []float64 // initial word values (≤ Words entries); ints stored exactly
	IsFloat  bool      // initializer/word interpretation for the C translator
}

// Routine is a single ILOC procedure: parameters, static data, and a list
// of basic blocks (Blocks[0] is the entry).
type Routine struct {
	Name   string
	Params []Param
	Data   []Data
	Blocks []*Block

	// Labels is the label table Block.Label, Instr.Label and
	// Instr.Label2 index. Each text appears once. Entries are only ever
	// appended, never rewritten, so clones share the table's storage.
	Labels []string
	// PhiSlab holds the operands of the routine's φ-nodes; each node's
	// Instr.Phi locates its run (see PhiArgs).
	PhiSlab []Reg

	// NextReg[class] is the first unused virtual register number of the
	// class. Virtual numbering starts at 1; number 0 is reserved.
	NextReg [NumClasses]int

	// Allocated is set once registers have been mapped to a target machine;
	// register numbers are then physical colors.
	Allocated bool
	// FrameWords counts the frame words up to the last spill slot.
	FrameWords int
	// CallerSave[class] records, for allocated code, how many low colors
	// the target's calling convention clobbers at a call (the interpreter
	// poisons them after each call to expose allocation bugs).
	CallerSave [NumClasses]int
}

// NewReg allocates a fresh virtual register of the class.
func (r *Routine) NewReg(c Class) Reg {
	if r.NextReg[c] == 0 {
		r.NextReg[c] = 1
	}
	n := r.NextReg[c]
	r.NextReg[c]++
	return Reg{Class: c, N: int32(n)}
}

// NumRegs returns the size of the virtual register space for a class
// (max register number + 1).
func (r *Routine) NumRegs(c Class) int {
	if r.NextReg[c] == 0 {
		return 1
	}
	return r.NextReg[c]
}

// LabelText returns the text of label l, or "" if l is not in the
// table.
func (r *Routine) LabelText(l Label) string {
	if l < 0 || int(l) >= len(r.Labels) {
		return ""
	}
	return r.Labels[l]
}

// BlockByLabel returns the block labelled text, or nil.
func (r *Routine) BlockByLabel(text string) *Block {
	for _, b := range r.Blocks {
		if r.LabelText(b.Label) == text {
			return b
		}
	}
	return nil
}

// BlockOf returns a table mapping each label to the first block it
// labels, nil for a label of no block. A caller resolving many branch
// targets builds it once.
func (r *Routine) BlockOf() []*Block {
	of := make([]*Block, len(r.Labels))
	for _, b := range r.Blocks {
		if l := b.Label; l >= 0 && int(l) < len(of) && of[l] == nil {
			of[l] = b
		}
	}
	return of
}

// PhiArgs returns the operands of φ-node in, a window on r.PhiSlab:
// writing an element rewrites the operand.
func (r *Routine) PhiArgs(in *Instr) []Reg {
	lo, hi := int(in.Phi.Off), int(in.Phi.Off)+int(in.Phi.Len)
	return r.PhiSlab[lo:hi:hi]
}

// phiInSlab reports whether φ-node in's operand run lies in r.PhiSlab.
func (r *Routine) phiInSlab(in *Instr) bool {
	return in.Phi.Off >= 0 && in.Phi.Len >= 0 && int(in.Phi.Off)+int(in.Phi.Len) <= len(r.PhiSlab)
}

// NewPhi returns a φ-node defining dst with n operands, each dst, which
// it appends to r.PhiSlab.
func (r *Routine) NewPhi(dst Reg, n int) Instr {
	off := len(r.PhiSlab)
	for i := 0; i < n; i++ {
		r.PhiSlab = append(r.PhiSlab, dst)
	}
	return Instr{Op: OpPhi, Dst: dst, Phi: PhiArgs{Off: int32(off), Len: int32(n)}}
}

// Uses returns the register sources of in. For a φ it returns the
// operand list.
func (r *Routine) Uses(in *Instr) []Reg {
	if in.Op == OpPhi {
		return r.PhiArgs(in)
	}
	return in.Src[:in.Op.NSrc()]
}

// DataByLabel returns the data item with the given label, or nil.
func (r *Routine) DataByLabel(label string) *Data {
	for i := range r.Data {
		if r.Data[i].Label == label {
			return &r.Data[i]
		}
	}
	return nil
}

// Entry returns the entry block.
func (r *Routine) Entry() *Block {
	if len(r.Blocks) == 0 {
		panic("iloc: routine has no blocks")
	}
	return r.Blocks[0]
}

// Reindex renumbers Blocks[i].Index after insertions or deletions.
func (r *Routine) Reindex() {
	for i, b := range r.Blocks {
		b.Index = i
	}
}

// NumInstrs returns the total instruction count across blocks.
func (r *Routine) NumInstrs() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ForEachInstr calls f on every instruction in block order.
func (r *Routine) ForEachInstr(f func(b *Block, i int, in *Instr)) {
	for _, b := range r.Blocks {
		for i, in := range b.Instrs {
			f(b, i, in)
		}
	}
}

// Clone returns a deep copy of the routine (blocks, instructions, data,
// φ operands); only the label table, whose entries are never
// rewritten, is shared, capped so an append to either copy's reallocates.
// CFG edges are remapped into the clone; analysis results such as Depth
// are preserved. The blocks, the instructions, the instruction lists
// and the edge lists are each cut from one slab, every list capped at
// its length, so appending to one block's list never writes into
// another's.
func (r *Routine) Clone() *Routine {
	c := &Routine{
		Name:       r.Name,
		Params:     append([]Param(nil), r.Params...),
		Labels:     r.Labels[:len(r.Labels):len(r.Labels)],
		PhiSlab:    append([]Reg(nil), r.PhiSlab...),
		NextReg:    r.NextReg,
		Allocated:  r.Allocated,
		FrameWords: r.FrameWords,
		CallerSave: r.CallerSave,
	}
	c.Data = make([]Data, len(r.Data))
	for i, d := range r.Data {
		c.Data[i] = d
		c.Data[i].Init = append([]float64(nil), d.Init...)
	}
	nInstrs, nEdges := 0, 0
	for _, b := range r.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Succs) + len(b.Preds)
	}
	blocks := make([]Block, len(r.Blocks))
	instrs := make([]Instr, nInstrs)
	lists := make([]*Instr, nInstrs)
	edges := make([]*Block, nEdges)
	c.Blocks = make([]*Block, len(r.Blocks))
	for i, b := range r.Blocks {
		nb := &blocks[i]
		nb.Index, nb.Label, nb.Depth = b.Index, b.Label, b.Depth
		n := len(b.Instrs)
		nb.Instrs, lists = lists[:n:n], lists[n:]
		for j, in := range b.Instrs {
			instrs[j] = *in
			nb.Instrs[j] = &instrs[j]
		}
		instrs = instrs[n:]
		c.Blocks[i] = nb
	}
	// An edge's target is found by its Index when that is current, and
	// by a scan otherwise; an edge to a block outside the routine maps
	// to nil.
	clone := func(x *Block) *Block {
		i := x.Index
		if i < 0 || i >= len(r.Blocks) || r.Blocks[i] != x {
			if i = slices.Index(r.Blocks, x); i < 0 {
				return nil
			}
		}
		return c.Blocks[i]
	}
	cloneEdges := func(from []*Block) []*Block {
		n := len(from)
		to := edges[:n:n]
		edges = edges[n:]
		for i, x := range from {
			to[i] = clone(x)
		}
		return to
	}
	for i, b := range r.Blocks {
		c.Blocks[i].Succs = cloneEdges(b.Succs)
		c.Blocks[i].Preds = cloneEdges(b.Preds)
	}
	return c
}

// LabelIndex finds a routine's labels by text and knows which label
// blocks. It indexes the table once, so each lookup is a map probe
// rather than a scan of the table or of the blocks.
type LabelIndex struct {
	table   *[]string // the label table it indexes and appends to
	ids     map[string]Label
	isBlock []bool // per label: whether a block has it
}

// NewLabelIndex indexes r's label table and the labels of its blocks.
func NewLabelIndex(r *Routine) *LabelIndex {
	x := &LabelIndex{table: &r.Labels, ids: make(map[string]Label, len(r.Labels)), isBlock: make([]bool, len(r.Labels))}
	for i, text := range r.Labels {
		if _, dup := x.ids[text]; !dup {
			x.ids[text] = Label(i)
		}
	}
	for _, b := range r.Blocks {
		if b.Label >= 0 && int(b.Label) < len(x.isBlock) {
			x.isBlock[b.Label] = true
		}
	}
	return x
}

// reset empties x and *table, and points x at table.
func (x *LabelIndex) reset(table *[]string) {
	*table = (*table)[:0]
	x.table = table
	clear(x.ids)
	x.isBlock = x.isBlock[:0]
}

// block interns text as a block's label.
func (x *LabelIndex) block(text string) Label {
	l := x.Intern(text)
	x.isBlock[l] = true
	return l
}

// Intern returns the label whose text is text, appending it to the
// table if it is new.
func (x *LabelIndex) Intern(text string) Label {
	if l, ok := x.ids[text]; ok {
		return l
	}
	l := Label(len(*x.table))
	*x.table = append(*x.table, text)
	x.ids[text] = l
	x.isBlock = append(x.isBlock, false)
	return l
}

// hasBlock reports whether a block has the label text.
func (x *LabelIndex) hasBlock(text string) bool {
	l, ok := x.ids[text]
	return ok && x.isBlock[l]
}

// FreshBlockLabel returns a label no block has, derived from base: base
// itself if it is free, else the first free one of base.1, base.2, ...
// It marks the label as a block's.
func (x *LabelIndex) FreshBlockLabel(base string) Label {
	text := base
	for i := 1; x.hasBlock(text); i++ {
		text = base + "." + strconv.Itoa(i)
	}
	return x.block(text)
}
