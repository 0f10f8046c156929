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
}

// Build converts the class-c registers of rt to pruned SSA in place and
// returns the value graph. Critical edges must already be split and the
// CFG built; live is the pre-SSA liveness solution for the class and tree
// the dominator tree.
func Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	df := dom.Frontiers(tree, rt)
	nOrig := rt.NumRegs(c)

	// Definition sites per original register. nNames[v] counts the names
	// v is given: one per definition, and below one per φ-node.
	nNames := make([]int, nOrig)
	nDefs := 0
	forEachDef(rt, c, func(v int, _ *iloc.Block) {
		nNames[v]++
		nDefs++
	})
	defBlocks := carve[*iloc.Block](nNames, nDefs)
	forEachDef(rt, c, func(v int, b *iloc.Block) {
		defBlocks[v] = append(defBlocks[v], b)
	})

	// Insert pruned φ-nodes. phiOrig remembers which original register a
	// φ merges, for the renaming walk. hasPhi[b] and inWork[b] hold the
	// last register that put a φ in block b or queued b, so one pair of
	// arrays serves every register.
	phiOrig := make(map[*iloc.Instr]int)
	hasPhi := make([]int, len(rt.Blocks))
	inWork := make([]int, len(rt.Blocks))
	var work []*iloc.Block
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
				phi := &iloc.Instr{
					Op:  iloc.OpPhi,
					Dst: iloc.Reg{Class: c, N: v},
					Phi: &iloc.Phi{Args: make([]iloc.Reg, len(f.Preds))},
				}
				for i := range phi.Phi.Args {
					phi.Phi.Args[i] = iloc.Reg{Class: c, N: v}
				}
				f.InsertBefore(0, phi)
				phiOrig[phi] = v
				nNames[v]++
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, f)
				}
			}
		}
	}

	// Rename over the dominator tree. Every definition and every φ mints
	// one value, so the value tables and name stacks are sized up front.
	names := nDefs + len(phiOrig)
	g := &Graph{
		Class:      c,
		DefOf:      append(make([]*iloc.Instr, 0, 1+names), nil),
		DefBlockOf: append(make([]*iloc.Block, 0, 1+names), nil),
		OrigOf:     append(make([]int, 0, 1+names), 0),
	}
	stacks := carve[int](nNames, names)
	defined := make([]int, 0, names) // originals defined along the dominator-tree path, in order
	newName := func(orig int, def *iloc.Instr, b *iloc.Block) int {
		v := len(g.DefOf)
		g.DefOf = append(g.DefOf, def)
		g.DefBlockOf = append(g.DefBlockOf, b)
		g.OrigOf = append(g.OrigOf, orig)
		stacks[orig] = append(stacks[orig], v)
		defined = append(defined, orig)
		return v
	}
	var renameErr error
	// top returns the value orig names at a use in the block labelled
	// label, or in one of its φ arguments when phi is set. The error's
	// location is formatted only when there is an error.
	top := func(orig int, label string, phi bool) int {
		st := stacks[orig]
		if len(st) == 0 {
			if renameErr == nil {
				if phi {
					label += "(φ)"
				}
				renameErr = fmt.Errorf("ssa: use of undefined register %s%d at %s",
					map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[c], orig, label)
			}
			return 0
		}
		return st[len(st)-1]
	}

	var walk func(bi int)
	walk = func(bi int) {
		b := rt.Blocks[bi]
		mark := len(defined)
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				if in.Dst.Class != c {
					continue
				}
				in.Dst = iloc.Reg{Class: c, N: newName(phiOrig[in], in, b)}
				continue
			}
			for i := range in.Src[:in.Op.NSrc()] {
				if in.Src[i].Class == c && in.Src[i].N != 0 {
					in.Src[i] = iloc.Reg{Class: c, N: top(in.Src[i].N, b.Label, false)}
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				in.Dst = iloc.Reg{Class: c, N: newName(d.N, in, b)}
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
				orig := in.Phi.Args[pi].N
				if v, named := phiOrig[in]; named {
					orig = v
				}
				in.Phi.Args[pi] = iloc.Reg{Class: c, N: top(orig, s.Label, true)}
			}
		}
		for _, child := range tree.Children[bi] {
			walk(child)
		}
		for _, orig := range defined[mark:] {
			stacks[orig] = stacks[orig][:len(stacks[orig])-1]
		}
		defined = defined[:mark]
	}
	walk(rt.Entry().Index)
	if renameErr != nil {
		return nil, renameErr
	}

	g.NumValues = len(g.DefOf)
	rt.NextReg[c] = g.NumValues

	// Def-use chains: count each value's uses, then fill in code order.
	nUses := make([]int, g.NumValues)
	total := 0
	forEachUse(rt, c, func(v int, _ *iloc.Instr) {
		nUses[v]++
		total++
	})
	g.UsesOf = carve[*iloc.Instr](nUses, total)
	forEachUse(rt, c, func(v int, in *iloc.Instr) {
		g.UsesOf[v] = append(g.UsesOf[v], in)
	})
	return g, nil
}

// carve returns one empty slice per count, all cut from one array of
// total elements, the slice for count n with capacity n: appending up to
// that many fills it in place, without allocating.
func carve[T any](counts []int, total int) [][]T {
	flat := make([]T, total)
	out := make([][]T, len(counts))
	off := 0
	for i, n := range counts {
		if n > 0 {
			out[i] = flat[off : off : off+n]
			off += n
		}
	}
	return out
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
