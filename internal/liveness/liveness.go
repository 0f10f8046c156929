// Package liveness computes live-in/live-out sets for one register class
// of a routine with an iterative bitset worklist.
//
// The paper's renumber uses the sparse data-flow evaluation graphs of
// Choi, Cytron and Ferrante for the same job; the dense iterative solver
// reaches the identical fixpoint (see DESIGN.md §4 on substitutions).
package liveness

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
)

// Info holds the liveness solution for one register class. All sets are
// indexed by Block.Index and sized to the routine's register space for
// the class; the reserved register 0 never appears.
type Info struct {
	Class   iloc.Class
	LiveIn  []*bitset.Set
	LiveOut []*bitset.Set
	UEVar   []*bitset.Set // upward-exposed uses per block
	Kill    []*bitset.Set // registers defined per block

	tmp bitset.Set // the transfer function's scratch set
}

// Compute solves liveness for class c. CFG edges must be built, and the
// code must not contain φ-nodes (renumber removes them before liveness is
// next needed).
func Compute(rt *iloc.Routine, c iloc.Class) *Info {
	info := new(Info)
	ComputeInto(info, rt, c, cfg.ReversePostorder(rt))
	return info
}

// ComputeInto is Compute solving into info, reusing the sets and scratch
// an earlier solve left there: a solve over at most as many blocks and
// registers as an earlier one allocates nothing. It overwrites every set
// of the earlier solution, including any a caller still holds. rpo is a
// reverse postorder of the routine's blocks, such as dom.Tree.Order;
// the fixpoint is the same in any order, and this one reaches it in the
// fewest sweeps.
func ComputeInto(info *Info, rt *iloc.Routine, c iloc.Class, rpo []*iloc.Block) {
	nb := len(rt.Blocks)
	n := rt.NumRegs(c)
	info.Class = c
	info.LiveIn = resetSets(info.LiveIn, nb, n)
	info.LiveOut = resetSets(info.LiveOut, nb, n)
	info.UEVar = resetSets(info.UEVar, nb, n)
	info.Kill = resetSets(info.Kill, nb, n)

	for _, b := range rt.Blocks {
		ue, kill := info.UEVar[b.Index], info.Kill[b.Index]
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				panic(fmt.Sprintf("liveness: φ-node in %s/%s", rt.Name, b.Label))
			}
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 && !kill.Has(u.N) {
					ue.Add(u.N)
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				kill.Add(d.N)
			}
		}
	}

	// Backward problem: iterate blocks in postorder (reverse RPO) until
	// the fixpoint.
	tmp := &info.tmp
	tmp.Reset(n)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := info.LiveOut[b.Index]
			for _, s := range b.Succs {
				if out.UnionWith(info.LiveIn[s.Index]) {
					changed = true
				}
			}
			// LiveIn = UEVar ∪ (LiveOut − Kill)
			tmp.CopyFrom(out)
			tmp.DifferenceWith(info.Kill[b.Index])
			tmp.UnionWith(info.UEVar[b.Index])
			if !tmp.Equal(info.LiveIn[b.Index]) {
				info.LiveIn[b.Index].CopyFrom(tmp)
				changed = true
			}
		}
	}
}

// Footprint returns the bytes of storage info holds.
func (info *Info) Footprint() int {
	b := info.tmp.Footprint()
	for _, sets := range [...][]*bitset.Set{info.LiveIn, info.LiveOut, info.UEVar, info.Kill} {
		b += 8 * cap(sets)
		for _, s := range sets[:cap(sets)] {
			if s != nil {
				b += s.Footprint()
			}
		}
	}
	return b
}

// resetSets returns nb empty sets of capacity n, reusing the sets in
// sets and their storage.
func resetSets(sets []*bitset.Set, nb, n int) []*bitset.Set {
	sets = slices.Grow(sets[:0], nb)[:nb]
	for i, s := range sets {
		if s == nil {
			sets[i] = bitset.New(n)
		} else {
			s.Reset(n)
		}
	}
	return sets
}

// LiveAcross reports whether register r is live out of block b.
func (in *Info) LiveAcross(b *iloc.Block, r int) bool {
	return in.LiveOut[b.Index].Has(r)
}
