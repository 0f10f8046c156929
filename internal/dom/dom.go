// Package dom computes dominator trees and dominance frontiers using the
// iterative algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast
// Dominance Algorithm") and the frontier construction of Cytron et al.,
// the dominance information the paper's control-flow-analysis phase
// ("cfa" in Table 2) computes.
package dom

import (
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
}

// Compute returns the dominator tree of the routine's CFG (edges must be
// built), rooted at the entry block.
func Compute(rt *iloc.Routine) *Tree {
	n := len(rt.Blocks)
	t := &Tree{
		Idom:     make([]int, n),
		Children: make([][]int, n),
		rpoNum:   make([]int, n),
	}
	for i := range t.Idom {
		t.Idom[i] = -1
		t.rpoNum[i] = -1
	}

	// Reverse postorder from the entry.
	seen := make([]bool, n)
	var post []*iloc.Block
	var dfs func(b *iloc.Block)
	dfs = func(b *iloc.Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	root := rt.Entry()
	dfs(root)
	order := make([]*iloc.Block, len(post))
	for i, b := range post {
		order[len(post)-1-i] = b
	}
	t.Order = order
	for i, b := range order {
		t.rpoNum[b.Index] = i
	}

	// The root's Idom stays -1. processed marks nodes whose Idom chain is
	// valid.
	processed := make([]bool, n)
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
	for b := 0; b < n; b++ {
		if p := t.Idom[b]; p >= 0 {
			t.Children[p] = append(t.Children[p], b)
		}
	}
	return t
}

// Dominates reports whether block a dominates block b (reflexive).
func (t *Tree) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.Idom[b]
	}
	return false
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
