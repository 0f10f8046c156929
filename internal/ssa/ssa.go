// Package ssa builds the pruned static single assignment form of one
// register class of an ILOC routine: φ-nodes are inserted on the iterated
// dominance frontiers of definition sites, but only where the original
// register is live (dead φ-nodes are never created), and a walk over the
// dominator tree renames every definition to a fresh register number.
//
// After Build, each register number of the class identifies a *value* in
// the paper's sense: one definition (an instruction or a φ-node) plus its
// uses. Renumber unions these values back into live ranges after tag
// propagation.
package ssa

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
)

// Graph is the SSA value graph for one register class. Values are
// register numbers in [1, NumValues); index 0 is the reserved register.
type Graph struct {
	Class     iloc.Class
	NumValues int

	// DefOf[v] is the instruction defining value v (possibly a φ).
	// Index 0 is nil.
	DefOf []*iloc.Instr

	// UsesOf[v] lists the instructions that read value v (φ-nodes
	// included); the sparse propagation worklist follows these edges.
	UsesOf [][]*iloc.Instr

	// OrigOf[v] is the register number the value had before renaming.
	OrigOf []int

	// Routine is the routine the graph was built over; its PhiSlab
	// holds the φ-nodes' operands.
	Routine *iloc.Routine

	// The storage a build reuses from the one before. No table holds a
	// pointer past its length: a build clears each pointer table by its
	// length before it shortens it, and so does Forget.
	counts    []int   // per-register definition-block counts, then per-value use counts (chain's offsets)
	defBlocks [][]int // indices of the definition blocks per original register
	defFlat   []int
	hasPhi    []int    // per block: the last register given a φ there
	inWork    []int    // per block: the last register that queued it
	work      []int    // indices of the blocks left to visit
	cur       []int    // per original register: the value it names at this point of the walk
	prev      []int    // per value: the value its register named before it
	uses      []useRec // the uses the renaming walk met, in its order
	usesFlat  []*iloc.Instr
	// phis holds the build's φ-nodes, and phiAt the index of each one's
	// block. A φ lives only until renumber removes it, so the next
	// build overwrites them. Their operands go to the routine's PhiSlab.
	phis  []iloc.Instr
	phiAt []int
	// renameErr is the first undefined use the renaming walk met.
	renameErr error
}

// useRec is one use the renaming walk met: instruction pos of the
// block with index block reads value v. Positions, not pointers, keep
// the record out of the collector's way; chain resolves them.
type useRec struct{ v, block, pos int32 }

// Build converts the class-c registers of rt to pruned SSA in place and
// returns the value graph. Critical edges must already be split and the
// CFG built; live is the pre-SSA liveness solution for the class and tree
// the dominator tree.
func Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	var gs [iloc.NumClasses]*Graph
	var lives [iloc.NumClasses]*liveness.Info
	gs[c], lives[c] = new(Graph), live
	if err := BuildAllInto(&gs, rt, tree, dom.Frontiers(tree, rt), &lives); err != nil {
		return nil, err
	}
	return gs[c], nil
}

// BuildAllInto is Build for every class whose graph in gs is not nil,
// from lives[c] and df, the dominance frontiers of tree. One walk over
// the dominator tree renames every class, and each gets exactly the
// values, φ-nodes and def-use chains a build of it alone gives. A
// block's φ-nodes of a later class come before an earlier one's, and
// the error is the first undefined use of the earliest class with one.
// A build reuses the storage an earlier one left in gs, so one no
// larger allocates nothing but the φ operands it appends to rt.PhiSlab
// and the longer lists of the blocks that get φ-nodes. It overwrites
// the earlier graphs, including any table or φ-node a caller holds.
func BuildAllInto(gs *[iloc.NumClasses]*Graph, rt *iloc.Routine, tree *dom.Tree, df [][]int, lives *[iloc.NumClasses]*liveness.Info) error {
	// Every definition and every φ mints one value, and no instruction
	// defines more than one, so the value tables are sized to the
	// instructions (φ-nodes included) up front.
	size := 1
	for _, b := range rt.Blocks {
		size += len(b.Instrs)
	}
	var count []int // per block: the φ-nodes every class puts there
	for c, g := range gs {
		if g == nil {
			continue
		}
		g.placePhis(rt, iloc.Class(c), df, lives[c])
		size += len(g.phis)
		if count == nil {
			count = g.hasPhi
		}
	}
	insertPhis(gs, rt, count)
	for c, g := range gs {
		if g != nil {
			g.startRename(rt, iloc.Class(c), size)
		}
	}
	walk(gs, rt, tree, rt.Entry().Index)
	for _, g := range gs {
		if g != nil && g.renameErr != nil {
			return g.renameErr
		}
	}
	for c, g := range gs {
		if g != nil {
			g.NumValues = len(g.DefOf)
			rt.NextReg[c] = g.NumValues
			g.chain()
		}
	}
	return nil
}

// placePhis places the pruned φ-nodes of class c in g.phis, with their
// blocks in g.phiAt. A φ's destination and arguments name the original
// register it merges until the renaming walk reaches them. The
// definition blocks of each register come from live's Kill sets.
func (g *Graph) placePhis(rt *iloc.Routine, c iloc.Class, df [][]int, live *liveness.Info) {
	nOrig := rt.NumRegs(c)
	nb := len(rt.Blocks)
	// Definition blocks per original register, in block order: block b
	// defines v exactly when v is in Kill(b).
	counts := resetInts(g.counts, nOrig)
	total := 0
	for bi := range nb {
		k := live.KillOf(bi)
		k.ForEach(func(v int) {
			counts[v]++
			total++
		})
	}
	g.defBlocks, g.defFlat = carve(g.defBlocks, g.defFlat, counts, total)
	g.counts = counts
	defBlocks := g.defBlocks
	for bi := range nb {
		k := live.KillOf(bi)
		k.ForEach(func(v int) { defBlocks[v] = append(defBlocks[v], bi) })
	}

	// hasPhi[b] and inWork[b] hold the last register that put a φ in
	// block b or queued b, so one pair of arrays serves every register.
	g.phis, g.phiAt = g.phis[:0], g.phiAt[:0]
	hasPhi, inWork := resetInts(g.hasPhi, nb), resetInts(g.inWork, nb)
	g.hasPhi, g.inWork = hasPhi, inWork
	work := g.work[:0]
	for v := 1; v < nOrig; v++ {
		if len(defBlocks[v]) == 0 {
			continue
		}
		work = append(work[:0], defBlocks[v]...)
		for _, bi := range work {
			inWork[bi] = v
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fi := range df[d] {
				if in := live.LiveInOf(fi); hasPhi[fi] == v || !in.Has(v) {
					continue // pruning: dead φ never inserted
				}
				hasPhi[fi] = v
				g.phis = append(g.phis, rt.NewPhi(iloc.Reg{Class: c, N: int32(v)}, len(rt.Blocks[fi].Preds)))
				g.phiAt = append(g.phiAt, fi)
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, fi)
				}
			}
		}
	}
	g.work = work
}

// insertPhis puts each block's φ-nodes at its head in one splice: a
// later class's before an earlier one's, and within a class the φ of a
// later original register first. count is scratch of one int per
// block.
func insertPhis(gs *[iloc.NumClasses]*Graph, rt *iloc.Routine, count []int) {
	clear(count)
	placed := false
	for _, g := range gs {
		if g != nil {
			for _, bi := range g.phiAt {
				count[bi]++
				placed = true
			}
		}
	}
	if !placed {
		return
	}
	for bi, k := range count {
		if k > 0 {
			b := rt.Blocks[bi]
			n := len(b.Instrs)
			b.Instrs = slices.Grow(b.Instrs, k)[:n+k]
			copy(b.Instrs[k:], b.Instrs[:n])
		}
	}
	// Block b's φ-nodes fill its first count[b] slots from the back,
	// the earliest class first.
	for _, g := range gs {
		if g == nil {
			continue
		}
		for i, bi := range g.phiAt {
			count[bi]--
			rt.Blocks[bi].Instrs[count[bi]] = &g.phis[i]
		}
	}
}

// startRename readies g's value tables for a renaming walk of rt's
// class-c registers that mints at most size values.
func (g *Graph) startRename(rt *iloc.Routine, c iloc.Class, size int) {
	g.Class = c
	clear(g.DefOf)
	g.DefOf = append(slices.Grow(g.DefOf[:0], size), nil)
	g.OrigOf = append(slices.Grow(g.OrigOf[:0], size), 0)
	g.prev = append(slices.Grow(g.prev[:0], size), 0)
	g.counts = append(slices.Grow(g.counts[:0], size), 0)
	g.uses = g.uses[:0]
	g.cur = resetInts(g.cur, rt.NumRegs(c))
	g.Routine, g.renameErr = rt, nil
}

// newName mints the value for one definition of orig, which names it
// until the walk leaves the block.
func (g *Graph) newName(orig int, def *iloc.Instr) int {
	v := len(g.DefOf)
	g.DefOf = append(g.DefOf, def)
	g.OrigOf = append(g.OrigOf, orig)
	g.prev = append(g.prev, g.cur[orig])
	g.counts = append(g.counts, 0)
	g.cur[orig] = v
	return v
}

// use returns the value orig names where instruction pos of block b
// reads it (as a φ argument when phi is set), and records the use.
func (g *Graph) use(orig int, b *iloc.Block, pos int, phi bool) int {
	v := g.cur[orig]
	if v == 0 {
		if g.renameErr == nil {
			at := g.Routine.LabelText(b.Label)
			if phi {
				at += "(φ)"
			}
			g.renameErr = &UndefinedUseError{Reg: iloc.Reg{Class: g.Class, N: int32(orig)}, At: at}
		}
		return 0
	}
	g.counts[v]++
	g.uses = append(g.uses, useRec{v: int32(v), block: int32(b.Index), pos: int32(pos)})
	return v
}

// UndefinedUseError reports a use of a register that no definition
// reaches.
type UndefinedUseError struct {
	Reg iloc.Reg // the register, as the code named it before renaming
	At  string   // the label of the use's block; "(φ)" marks a φ operand
}

func (e *UndefinedUseError) Error() string {
	return fmt.Sprintf("ssa: use of undefined register %s%d at %s",
		map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[e.Reg.Class], e.Reg.N, e.At)
}

// of returns the graph in gs of r's class, or nil when r is no
// register, the reserved register 0, or of a class gs leaves out.
func of(gs *[iloc.NumClasses]*Graph, r iloc.Reg) *Graph {
	if r.N == 0 || r.Class >= iloc.NumClasses {
		return nil
	}
	return gs[r.Class]
}

// walk renames block bi and then the blocks it dominates, every class
// with a graph in gs at once.
func walk(gs *[iloc.NumClasses]*Graph, rt *iloc.Routine, tree *dom.Tree, bi int) {
	b := rt.Blocks[bi]
	var first, last [iloc.NumClasses]int
	for c, g := range gs {
		if g != nil {
			first[c] = len(g.DefOf)
		}
	}
	for pos, in := range b.Instrs {
		if in.Op == iloc.OpPhi {
			if g := of(gs, in.Dst); g != nil {
				in.Dst.N = int32(g.newName(int(in.Dst.N), in))
			}
			continue
		}
		for i := range in.Src[:in.Op.NSrc()] {
			if g := of(gs, in.Src[i]); g != nil {
				in.Src[i].N = int32(g.use(int(in.Src[i].N), b, pos, false))
			}
		}
		if d := in.Def(); d.Valid() {
			if g := of(gs, d); g != nil {
				in.Dst.N = int32(g.newName(int(d.N), in))
			}
		}
	}
	for c, g := range gs {
		if g != nil {
			last[c] = len(g.DefOf)
		}
	}
	for _, s := range b.Succs {
		pi := s.PredIndex(b)
		for pos, in := range s.Instrs {
			if in.Op != iloc.OpPhi {
				break
			}
			// Each argument is renamed once, from its own predecessor,
			// so it still names the original register here.
			if g := of(gs, in.Dst); g != nil {
				arg := &rt.PhiArgs(in)[pi]
				arg.N = int32(g.use(int(arg.N), s, pos, true))
			}
		}
	}
	for _, child := range tree.Children[bi] {
		walk(gs, rt, tree, child)
	}
	// Leaving the block, each register it defined names again what it
	// named on entry.
	for c, g := range gs {
		if g == nil {
			continue
		}
		for v := last[c] - 1; v >= first[c]; v-- {
			g.cur[g.OrigOf[v]] = g.prev[v]
		}
	}
}

// chain fills UsesOf from the uses the walk recorded, each value's in
// the order the walk met them, all cut from one array and each capped
// at its length.
func (g *Graph) chain() {
	blocks := g.Routine.Blocks
	clear(g.usesFlat)
	g.usesFlat = slices.Grow(g.usesFlat[:0], len(g.uses))[:len(g.uses)]
	// counts holds each value's use count, then where its uses start,
	// then where they end.
	off := 0
	for v, n := range g.counts {
		g.counts[v] = off
		off += n
	}
	for _, u := range g.uses {
		g.usesFlat[g.counts[u.v]] = blocks[u.block].Instrs[u.pos]
		g.counts[u.v]++
	}
	clear(g.UsesOf)
	g.UsesOf = slices.Grow(g.UsesOf[:0], len(g.counts))[:len(g.counts)]
	start := 0
	for v, end := range g.counts {
		g.UsesOf[v] = g.usesFlat[start:end:end]
		start = end
	}
}

// Forget drops g's references into the routine it was built over,
// keeping the storage for the next build. The graph is empty after.
func (g *Graph) Forget() {
	clear(g.DefOf)
	clear(g.UsesOf)
	clear(g.usesFlat)
	g.DefOf, g.UsesOf, g.OrigOf = g.DefOf[:0], g.UsesOf[:0], g.OrigOf[:0]
	g.Routine = nil
	g.usesFlat, g.uses = g.usesFlat[:0], g.uses[:0]
	g.NumValues = 0
}

// Footprint returns the bytes of storage g holds for reuse.
func (g *Graph) Footprint() int {
	const ptr, slice = 8, 24
	return ptr*(cap(g.DefOf)+cap(g.usesFlat)) +
		slice*(cap(g.UsesOf)+cap(g.defBlocks)) +
		8*(cap(g.OrigOf)+cap(g.counts)+cap(g.hasPhi)+cap(g.inWork)+cap(g.cur)+cap(g.prev)+cap(g.defFlat)+cap(g.work)+cap(g.phiAt)) +
		int(unsafe.Sizeof(iloc.Instr{}))*cap(g.phis) + int(unsafe.Sizeof(useRec{}))*cap(g.uses)
}

// resetInts returns n zeros in s's storage when it is large enough.
func resetInts(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// carve returns one empty slice per count, all cut from flat (grown to
// total elements if it is smaller), the slice for count n with capacity
// n: appending up to that many fills it in place, without allocating.
// out's storage is reused for the slices, and flat is returned for the
// next call.
func carve[T any](out [][]T, flat []T, counts []int, total int) ([][]T, []T) {
	flat = slices.Grow(flat[:0], total)[:total]
	out = slices.Grow(out[:0], len(counts))[:len(counts)]
	off := 0
	for i, n := range counts {
		out[i] = flat[off : off : off+n]
		off += n
	}
	return out, flat
}
