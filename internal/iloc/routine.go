package iloc

import (
	"fmt"
	"slices"
)

// Block is a basic block: a label, a straight-line instruction sequence
// ending in at most one terminator, and its CFG edges. Edges are filled in
// by cfg.Build.
type Block struct {
	Index  int // position in Routine.Blocks
	Label  string
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

	// NextReg[class] is the first unused virtual register number of the
	// class. Virtual numbering starts at 1; number 0 is reserved.
	NextReg [NumClasses]int

	// Allocated is set once registers have been mapped to a target machine;
	// register numbers are then physical colors.
	Allocated bool
	// FrameWords is the number of 8-byte spill slots the allocator used.
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
	return Reg{Class: c, N: n}
}

// NumRegs returns the size of the virtual register space for a class
// (max register number + 1).
func (r *Routine) NumRegs(c Class) int {
	if r.NextReg[c] == 0 {
		return 1
	}
	return r.NextReg[c]
}

// BlockByLabel returns the block with the given label, or nil.
func (r *Routine) BlockByLabel(label string) *Block {
	for _, b := range r.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// BlockIndex maps each block label to its block. A caller resolving
// many labels builds it once instead of calling BlockByLabel, which
// scans, per label.
func (r *Routine) BlockIndex() map[string]*Block {
	idx := make(map[string]*Block, len(r.Blocks))
	for _, b := range r.Blocks {
		if _, dup := idx[b.Label]; !dup {
			idx[b.Label] = b
		}
	}
	return idx
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

// Clone returns a deep copy of the routine (blocks, instructions, data).
// CFG edges are remapped into the clone; analysis results such as Depth
// are preserved. The blocks, the instructions, the instruction lists
// and the edge lists are each cut from one slab, every list capped at
// its length, so appending to one block's list never writes into
// another's.
func (r *Routine) Clone() *Routine {
	c := &Routine{
		Name:       r.Name,
		Params:     append([]Param(nil), r.Params...),
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
			if in.Phi != nil {
				instrs[j].Phi = &Phi{Args: append([]Reg(nil), in.Phi.Args...)}
			}
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

// freshLabel returns a label not used by any block, derived from base.
func (r *Routine) FreshLabel(base string) string {
	if r.BlockByLabel(base) == nil {
		return base
	}
	for i := 1; ; i++ {
		l := fmt.Sprintf("%s.%d", base, i)
		if r.BlockByLabel(l) == nil {
			return l
		}
	}
}
