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

	// DefOf[v] is the instruction defining value v (possibly a φ);
	// DefBlockOf[v] is its block. Index 0 is nil.
	DefOf      []*iloc.Instr
	DefBlockOf []*iloc.Block

	// UsesOf[v] lists the instructions that read value v (φ-nodes
	// included); the sparse propagation worklist follows these edges.
	UsesOf [][]*iloc.Instr

	// OrigOf[v] is the register number the value had before renaming.
	OrigOf []int

	// The storage BuildInto reuses from one build to the next.
	counts    []int           // per-register name counts, then per-value use counts
	defBlocks [][]*iloc.Block // definition blocks per original register
	defFlat   []*iloc.Block
	hasPhi    []int // per block: the last register given a φ there
	inWork    []int // per block: the last register that queued it
	work      []*iloc.Block
	stacks    [][]int // renaming stacks per original register
	stackFlat []int
	defined   []int // originals defined along the dominator-tree path, in order
	usesFlat  []*iloc.Instr
	// phis and args are slabs the build's φ-nodes and their argument
	// lists are cut from. A φ lives only until renumber removes it, so
	// the next build overwrites them; a slab that fills is replaced by
	// one twice its size, and the φ-nodes already cut keep the old one.
	phis []phiNode
	args []iloc.Reg
	// The renaming walk's state.
	rt        *iloc.Routine
	tree      *dom.Tree
	renameErr error
}

// phiNode is a φ instruction together with its operand list.
type phiNode struct {
	in  iloc.Instr
	phi iloc.Phi
}

// Build converts the class-c registers of rt to pruned SSA in place and
// returns the value graph. Critical edges must already be split and the
// CFG built; live is the pre-SSA liveness solution for the class and tree
// the dominator tree.
func Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	g := new(Graph)
	if err := BuildInto(g, rt, c, tree, dom.Frontiers(tree, rt), live); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildInto is Build filling g, with df the dominance frontiers of tree.
// It reuses the tables and φ-node slabs an earlier build left in g, so a
// build no larger than an earlier one allocates nothing. It overwrites
// the earlier graph, including any table or φ-node a caller still holds.
func BuildInto(g *Graph, rt *iloc.Routine, c iloc.Class, tree *dom.Tree, df [][]int, live *liveness.Info) error {
	nOrig := rt.NumRegs(c)
	nb := len(rt.Blocks)
	// Definition sites per original register. nNames[v] counts the names
	// v is given: one per definition, and below one per φ-node.
	nNames := resetInts(g.counts, nOrig)
	g.counts = nNames
	nDefs := 0
	forEachDef(rt, c, func(v int, _ *iloc.Block) {
		nNames[v]++
		nDefs++
	})
	g.defBlocks, g.defFlat = carve(g.defBlocks, g.defFlat, nNames, nDefs)
	defBlocks := g.defBlocks
	forEachDef(rt, c, func(v int, b *iloc.Block) {
		defBlocks[v] = append(defBlocks[v], b)
	})

	// Insert pruned φ-nodes. A φ's destination and arguments name the
	// original register it merges until the renaming walk reaches them.
	// hasPhi[b] and inWork[b] hold the last register that put a φ in
	// block b or queued b, so one pair of arrays serves every register.
	g.phis, g.args = g.phis[:0], g.args[:0]
	nPhis := 0
	hasPhi, inWork := resetInts(g.hasPhi, nb), resetInts(g.inWork, nb)
	g.hasPhi, g.inWork = hasPhi, inWork
	work := g.work[:0]
	for v := 1; v < nOrig; v++ {
		if len(defBlocks[v]) == 0 {
			continue
		}
		work = append(work[:0], defBlocks[v]...)
		for _, b := range work {
			inWork[b.Index] = v
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fi := range df[d.Index] {
				f := rt.Blocks[fi]
				if hasPhi[fi] == v || !live.LiveIn[fi].Has(v) {
					continue // pruning: dead φ never inserted
				}
				hasPhi[fi] = v
				f.InsertBefore(0, g.newPhi(iloc.Reg{Class: c, N: v}, len(f.Preds)))
				nPhis++
				nNames[v]++
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, f)
				}
			}
		}
	}
	g.work = work

	// Rename over the dominator tree. Every definition and every φ mints
	// one value, so the value tables and name stacks are sized up front.
	names := nDefs + nPhis
	g.Class = c
	g.DefOf = append(slices.Grow(g.DefOf[:0], 1+names), nil)
	g.DefBlockOf = append(slices.Grow(g.DefBlockOf[:0], 1+names), nil)
	g.OrigOf = append(slices.Grow(g.OrigOf[:0], 1+names), 0)
	g.stacks, g.stackFlat = carve(g.stacks, g.stackFlat, nNames, names)
	g.defined = slices.Grow(g.defined[:0], names)
	g.rt, g.tree, g.renameErr = rt, tree, nil
	g.walk(rt.Entry().Index)
	err := g.renameErr
	g.rt, g.tree, g.renameErr = nil, nil, nil
	if err != nil {
		return err
	}
	g.NumValues = len(g.DefOf)
	rt.NextReg[c] = g.NumValues

	// Def-use chains: count each value's uses, then fill in code order.
	nUses := resetInts(g.counts, g.NumValues)
	g.counts = nUses
	total := 0
	forEachUse(rt, c, func(v int, _ *iloc.Instr) {
		nUses[v]++
		total++
	})
	g.UsesOf, g.usesFlat = carve(g.UsesOf, g.usesFlat, nUses, total)
	forEachUse(rt, c, func(v int, in *iloc.Instr) {
		g.UsesOf[v] = append(g.UsesOf[v], in)
	})
	return nil
}

// newPhi returns a φ-node for dst with n arguments, each dst, cut from
// g's slabs.
func (g *Graph) newPhi(dst iloc.Reg, n int) *iloc.Instr {
	if len(g.phis) == cap(g.phis) {
		g.phis = make([]phiNode, 0, max(16, 2*cap(g.phis)))
	}
	if len(g.args)+n > cap(g.args) {
		g.args = make([]iloc.Reg, 0, max(64, 2*cap(g.args), n))
	}
	g.phis = g.phis[:len(g.phis)+1]
	p := &g.phis[len(g.phis)-1]
	off := len(g.args)
	g.args = g.args[:off+n]
	args := g.args[off : off+n : off+n]
	for i := range args {
		args[i] = dst
	}
	p.phi = iloc.Phi{Args: args}
	p.in = iloc.Instr{Op: iloc.OpPhi, Dst: dst, Phi: &p.phi}
	return &p.in
}

// newName mints the value for one definition of orig.
func (g *Graph) newName(orig int, def *iloc.Instr, b *iloc.Block) int {
	v := len(g.DefOf)
	g.DefOf = append(g.DefOf, def)
	g.DefBlockOf = append(g.DefBlockOf, b)
	g.OrigOf = append(g.OrigOf, orig)
	g.stacks[orig] = append(g.stacks[orig], v)
	g.defined = append(g.defined, orig)
	return v
}

// top returns the value orig names at a use in the block labelled
// label, or in one of its φ arguments when phi is set. The error's
// location is formatted only when there is an error.
func (g *Graph) top(orig int, label string, phi bool) int {
	st := g.stacks[orig]
	if len(st) == 0 {
		if g.renameErr == nil {
			if phi {
				label += "(φ)"
			}
			g.renameErr = fmt.Errorf("ssa: use of undefined register %s%d at %s",
				map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[g.Class], orig, label)
		}
		return 0
	}
	return st[len(st)-1]
}

// walk renames block bi and then the blocks it dominates.
func (g *Graph) walk(bi int) {
	c := g.Class
	b := g.rt.Blocks[bi]
	mark := len(g.defined)
	for _, in := range b.Instrs {
		if in.Op == iloc.OpPhi {
			if in.Dst.Class != c {
				continue
			}
			in.Dst = iloc.Reg{Class: c, N: g.newName(in.Dst.N, in, b)}
			continue
		}
		for i := range in.Src[:in.Op.NSrc()] {
			if in.Src[i].Class == c && in.Src[i].N != 0 {
				in.Src[i] = iloc.Reg{Class: c, N: g.top(in.Src[i].N, b.Label, false)}
			}
		}
		if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
			in.Dst = iloc.Reg{Class: c, N: g.newName(d.N, in, b)}
		}
	}
	for _, s := range b.Succs {
		pi := s.PredIndex(b)
		for _, in := range s.Instrs {
			if in.Op != iloc.OpPhi {
				break
			}
			if in.Dst.Class != c {
				continue
			}
			// Each argument is renamed once, from its own predecessor,
			// so it still names the original register here.
			in.Phi.Args[pi] = iloc.Reg{Class: c, N: g.top(in.Phi.Args[pi].N, s.Label, true)}
		}
	}
	for _, child := range g.tree.Children[bi] {
		g.walk(child)
	}
	for _, orig := range g.defined[mark:] {
		g.stacks[orig] = g.stacks[orig][:len(g.stacks[orig])-1]
	}
	g.defined = g.defined[:mark]
}

// Forget drops g's references into the routine it was built over,
// keeping the storage for the next BuildInto. The graph is empty after.
func (g *Graph) Forget() {
	clear(g.DefOf[:cap(g.DefOf)])
	clear(g.DefBlockOf[:cap(g.DefBlockOf)])
	clear(g.UsesOf[:cap(g.UsesOf)])
	clear(g.usesFlat[:cap(g.usesFlat)])
	clear(g.defBlocks[:cap(g.defBlocks)])
	clear(g.defFlat[:cap(g.defFlat)])
	clear(g.work[:cap(g.work)])
	g.DefOf, g.DefBlockOf, g.UsesOf, g.OrigOf = g.DefOf[:0], g.DefBlockOf[:0], g.UsesOf[:0], g.OrigOf[:0]
	g.NumValues = 0
}

// Footprint returns the bytes of storage g holds for reuse.
func (g *Graph) Footprint() int {
	const ptr, slice = 8, 24
	return ptr*(cap(g.DefOf)+cap(g.DefBlockOf)+cap(g.defFlat)+cap(g.work)+cap(g.usesFlat)) +
		slice*(cap(g.UsesOf)+cap(g.defBlocks)+cap(g.stacks)) +
		8*(cap(g.OrigOf)+cap(g.counts)+cap(g.hasPhi)+cap(g.inWork)+cap(g.stackFlat)+cap(g.defined)) +
		int(unsafe.Sizeof(phiNode{}))*cap(g.phis) + int(unsafe.Sizeof(iloc.Reg{}))*cap(g.args)
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

// forEachDef calls f for every definition of a class-c register, with
// its block, in code order.
func forEachDef(rt *iloc.Routine, c iloc.Class, f func(v int, b *iloc.Block)) {
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				f(d.N, b)
			}
		}
	}
}

// forEachUse calls f for every use of a class-c value, in code order.
func forEachUse(rt *iloc.Routine, c iloc.Class, f func(v int, in *iloc.Instr)) {
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 {
					f(u.N, in)
				}
			}
		}
	}
}
