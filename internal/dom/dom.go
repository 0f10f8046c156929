// Package dom computes dominator trees and dominance frontiers using the
// iterative algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast
// Dominance Algorithm") and the frontier construction of Cytron et al.,
// the dominance information the paper's control-flow-analysis phase
// ("cfa" in Table 2) computes.
package dom

import (
	"slices"

	"repro/internal/iloc"
)

// Tree is a dominator tree over the blocks of a routine. Blocks are
// identified by Block.Index.
type Tree struct {
	// Idom[b] is the immediate dominator of block b, or -1 for the root
	// (and for blocks outside the walk, which cannot happen after
	// cfg.Build removes unreachable blocks).
	Idom []int
	// Children[b] lists the blocks immediately dominated by b.
	Children [][]int
	// Order is a reverse postorder of the CFG; the
	// renaming walk in SSA construction uses Children, while iterative
	// dataflow uses Order.
	Order []*iloc.Block

	rpoNum []int // block index -> position in Order
	// pre and post number each block in a walk of the tree (-1 outside
	// it): a dominates b exactly when a's interval [pre, post] holds b's.
	pre, post []int
}

// Compute returns the dominator tree of the routine's CFG (edges must be
// built), rooted at the entry block.
func Compute(rt *iloc.Routine) *Tree {
	n := len(rt.Blocks)
	// One slab holds the per-block ints and one the per-block flags.
	ints := make([]int, 5*n)
	t := &Tree{
		Idom:     ints[0:n:n],
		Children: make([][]int, n),
		rpoNum:   ints[n : 2*n : 2*n],
		pre:      ints[2*n : 3*n : 3*n],
		post:     ints[3*n : 4*n : 4*n],
	}
	for i := range ints[:4*n] {
		ints[i] = -1
	}
	flags := make([]bool, 2*n)
	seen, processed := flags[:n], flags[n:]

	// Reverse postorder from the entry, by a depth-first walk that
	// visits successors in order.
	type frame struct{ b, next int }
	stack := make([]frame, 0, 16)
	order := make([]*iloc.Block, 0, n)
	root := rt.Entry()
	seen[root.Index] = true
	stack = append(stack, frame{b: root.Index})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		b := rt.Blocks[top.b]
		if top.next == len(b.Succs) {
			order = append(order, b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := b.Succs[top.next]
		top.next++
		if !seen[s.Index] {
			seen[s.Index] = true
			stack = append(stack, frame{b: s.Index})
		}
	}
	slices.Reverse(order)
	t.Order = order
	for i, b := range order {
		t.rpoNum[b.Index] = i
	}

	// The root's Idom stays -1. processed marks nodes whose Idom chain is
	// valid.
	processed[root.Index] = true

	// intersect walks both chains up to the common ancestor; walking off
	// the root on either side yields -1.
	intersect := func(a, b int) int {
		for a != b {
			if a == -1 || b == -1 {
				return -1
			}
			if t.rpoNum[a] > t.rpoNum[b] {
				a = t.Idom[a]
			} else {
				b = t.Idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == root {
				continue
			}
			newIdom := -1
			first := true
			for _, p := range b.Preds {
				pi := p.Index
				if t.rpoNum[pi] < 0 || !processed[pi] {
					continue // unreachable or not yet processed
				}
				if first {
					newIdom, first = pi, false
				} else {
					newIdom = intersect(pi, newIdom)
				}
			}
			if first {
				continue // no processed predecessor yet
			}
			if !processed[b.Index] || t.Idom[b.Index] != newIdom {
				t.Idom[b.Index] = newIdom
				processed[b.Index] = true
				changed = true
			}
		}
	}

	// Each block's children, in index order, are cut from the slab's
	// last n ints; a leaf's list stays nil.
	counts := ints[4*n:]
	for b := 0; b < n; b++ {
		if p := t.Idom[b]; p >= 0 {
			counts[p]++
		}
	}
	off := 0
	for b, k := range counts {
		if k > 0 {
			t.Children[b] = counts[off : off : off+k]
			off += k
		}
	}
	for b := 0; b < n; b++ {
		if p := t.Idom[b]; p >= 0 {
			t.Children[p] = append(t.Children[p], b)
		}
	}

	// Number the tree's blocks on and off a depth-first walk.
	clock := 0
	t.pre[root.Index] = clock
	stack = append(stack[:0], frame{b: root.Index})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(t.Children[top.b]) {
			clock++
			t.post[top.b] = clock
			stack = stack[:len(stack)-1]
			continue
		}
		c := t.Children[top.b][top.next]
		top.next++
		clock++
		t.pre[c] = clock
		stack = append(stack, frame{b: c})
	}
	return t
}

// Dominates reports whether block a dominates block b (reflexive).
func (t *Tree) Dominates(a, b int) bool {
	if t.pre[b] < 0 {
		return a == b // b is outside the tree
	}
	return t.pre[a] <= t.pre[b] && t.post[b] <= t.post[a]
}

// Frontiers returns the dominance frontier of every block, per Cytron et
// al.: DF(b) contains each join point j with a predecessor dominated by b
// while b does not strictly dominate j.
func Frontiers(t *Tree, rt *iloc.Routine) [][]int {
	n := len(rt.Blocks)
	df := make([][]int, n)
	add := func(b, j int) {
		for _, x := range df[b] {
			if x == j {
				return
			}
		}
		df[b] = append(df[b], j)
	}
	for _, b := range rt.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p.Index
			for runner != -1 && runner != t.Idom[b.Index] {
				add(runner, b.Index)
				runner = t.Idom[runner]
			}
		}
	}
	return df
}
