// Package cfg builds and maintains the control-flow graph of an ILOC
// routine: successor/predecessor edges, reachability, reverse postorder,
// critical-edge splitting, and natural-loop nesting depth (which weights
// spill costs by 10^depth, as in the paper).
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/iloc"
)

// Build computes Succs/Preds for every block from terminators and
// fall-through, and removes unreachable blocks. Blocks without a
// terminator fall through to the next block in Routine.Blocks order.
func Build(rt *iloc.Routine) error {
	for _, b := range rt.Blocks {
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	addEdge := func(from, to *iloc.Block) {
		for _, s := range from.Succs {
			if s == to {
				return // collapse duplicate edges (br cond r, L, L)
			}
		}
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	byLabel := rt.BlockIndex()
	for i, b := range rt.Blocks {
		t := b.Terminator()
		if t == nil {
			if i+1 >= len(rt.Blocks) {
				return fmt.Errorf("cfg: final block %s has no terminator", b.Label)
			}
			addEdge(b, rt.Blocks[i+1])
			continue
		}
		switch t.Op {
		case iloc.OpJmp:
			to := byLabel[t.Label]
			if to == nil {
				return fmt.Errorf("cfg: jmp to unknown label %q", t.Label)
			}
			addEdge(b, to)
		case iloc.OpBr:
			to1, to2 := byLabel[t.Label], byLabel[t.Label2]
			if to1 == nil || to2 == nil {
				return fmt.Errorf("cfg: br to unknown label in %s", b.Label)
			}
			addEdge(b, to1)
			addEdge(b, to2)
		default: // ret/retr/retf: no successors
		}
	}
	pruneUnreachable(rt)
	rt.Reindex()
	return nil
}

func pruneUnreachable(rt *iloc.Routine) {
	reach := make(map[*iloc.Block]bool, len(rt.Blocks))
	var walk func(b *iloc.Block)
	walk = func(b *iloc.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(rt.Entry())
	if len(reach) == len(rt.Blocks) {
		return
	}
	kept := rt.Blocks[:0]
	for _, b := range rt.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	rt.Blocks = kept
	// Drop edges from removed predecessors.
	for _, b := range rt.Blocks {
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if reach[p] {
				preds = append(preds, p)
			}
		}
		b.Preds = preds
	}
}

// ReversePostorder returns the blocks in reverse postorder of a DFS from
// the entry. Every block is reachable after Build, so the result covers
// the whole routine.
func ReversePostorder(rt *iloc.Routine) []*iloc.Block {
	// stack holds the blocks on the DFS path and, for each, the next
	// successor to visit.
	type frame struct {
		b    *iloc.Block
		next int
	}
	seen := make([]bool, len(rt.Blocks))
	order := make([]*iloc.Block, 0, len(rt.Blocks))
	entry := rt.Entry()
	seen[entry.Index] = true
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.b.Succs) {
			order = append(order, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := top.b.Succs[top.next]
		top.next++
		if !seen[s.Index] {
			seen[s.Index] = true
			stack = append(stack, frame{b: s})
		}
	}
	slices.Reverse(order)
	return order
}

// SplitCriticalEdges inserts an empty jmp-block on every edge whose source
// has multiple successors and whose target has multiple predecessors.
// Renumber needs this so split copies inserted "in the predecessor block"
// (§4.1 step 6) cannot execute on an unrelated path. It returns the number
// of edges split and rebuilds the CFG if any were.
func SplitCriticalEdges(rt *iloc.Routine) (int, error) {
	type edge struct {
		from *iloc.Block
		to   *iloc.Block
	}
	var critical []edge
	for _, b := range rt.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(s.Preds) > 1 {
				critical = append(critical, edge{b, s})
			}
		}
	}
	if len(critical) == 0 {
		return 0, nil
	}
	for _, e := range critical {
		mid := &iloc.Block{
			Label:  rt.FreshLabel(e.from.Label + ".x." + e.to.Label),
			Depth:  min(e.from.Depth, e.to.Depth),
			Instrs: []*iloc.Instr{{Op: iloc.OpJmp, Dst: iloc.NoReg, Label: e.to.Label}},
		}
		t := e.from.Terminator()
		if t == nil || t.Op != iloc.OpBr {
			return 0, fmt.Errorf("cfg: critical edge from %s without br terminator", e.from.Label)
		}
		// Retarget exactly one arm. Build collapses duplicate-target
		// branches to one edge, so Label and Label2 differ here.
		switch e.to.Label {
		case t.Label:
			t.Label = mid.Label
		case t.Label2:
			t.Label2 = mid.Label
		default:
			return 0, fmt.Errorf("cfg: edge %s->%s not in terminator", e.from.Label, e.to.Label)
		}
		rt.Blocks = append(rt.Blocks, mid)
	}
	rt.Reindex()
	return len(critical), Build(rt)
}
