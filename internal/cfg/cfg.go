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
	rt.Reindex()
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
	blockOf := rt.BlockOf()
	target := func(l iloc.Label) *iloc.Block {
		if l < 0 || int(l) >= len(blockOf) {
			return nil
		}
		return blockOf[l]
	}
	for i, b := range rt.Blocks {
		t := b.Terminator()
		if t == nil {
			if i+1 >= len(rt.Blocks) {
				return fmt.Errorf("cfg: final block %s has no terminator", rt.LabelText(b.Label))
			}
			addEdge(b, rt.Blocks[i+1])
			continue
		}
		switch t.Op {
		case iloc.OpJmp:
			to := target(t.Label)
			if to == nil {
				return fmt.Errorf("cfg: jmp to unknown label %q", rt.LabelText(t.Label))
			}
			addEdge(b, to)
		case iloc.OpBr:
			to1, to2 := target(t.Label), target(t.Label2)
			if to1 == nil || to2 == nil {
				return fmt.Errorf("cfg: br to unknown label in %s", rt.LabelText(b.Label))
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

// pruneUnreachable drops the blocks the entry does not reach, and their
// edges. Block indices must be current.
func pruneUnreachable(rt *iloc.Routine) {
	reach := make([]bool, len(rt.Blocks))
	reach[0] = true
	n := 1
	stack := []*iloc.Block{rt.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s.Index] {
				reach[s.Index] = true
				n++
				stack = append(stack, s)
			}
		}
	}
	if n == len(rt.Blocks) {
		return
	}
	kept := rt.Blocks[:0]
	for _, b := range rt.Blocks {
		if reach[b.Index] {
			kept = append(kept, b)
		}
	}
	rt.Blocks = kept
	// Drop edges from removed predecessors.
	for _, b := range rt.Blocks {
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if reach[p.Index] {
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
// (§4.1 step 6) cannot execute on an unrelated path. The CFG must be
// built. It returns the number of edges split, and patches the edges in
// place to what Build would make of the new code: the new blocks go at
// the end of the routine, so each is its target's last predecessor.
func SplitCriticalEdges(rt *iloc.Routine) (int, error) {
	type edge struct {
		from *iloc.Block
		arm  int // position of the edge in from.Succs
	}
	var critical []edge
	for _, b := range rt.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			if len(s.Preds) > 1 {
				critical = append(critical, edge{b, i})
			}
		}
	}
	if len(critical) == 0 {
		return 0, nil
	}
	n0 := len(rt.Blocks)
	labels := iloc.NewLabelIndex(rt)
	mids := make([]iloc.Block, len(critical))
	jmps := make([]iloc.Instr, len(critical))
	lists := make([]*iloc.Instr, len(critical))
	edges := make([]*iloc.Block, 2*len(critical))
	for i, e := range critical {
		from, to := e.from, e.from.Succs[e.arm]
		t := from.Terminator()
		if t == nil || t.Op != iloc.OpBr {
			return 0, fmt.Errorf("cfg: critical edge from %s without br terminator", rt.LabelText(from.Label))
		}
		mid := &mids[i]
		mid.Index = len(rt.Blocks)
		mid.Label = labels.FreshBlockLabel(rt.Labels[from.Label] + ".x." + rt.Labels[to.Label])
		mid.Depth = min(from.Depth, to.Depth)
		jmps[i] = iloc.Instr{Op: iloc.OpJmp, Dst: iloc.NoReg, Label: to.Label}
		lists[i] = &jmps[i]
		mid.Instrs = lists[i : i+1 : i+1]
		// Retarget exactly one arm. Build collapses duplicate-target
		// branches to one edge, so Label and Label2 differ here.
		switch to.Label {
		case t.Label:
			t.Label = mid.Label
		case t.Label2:
			t.Label2 = mid.Label
		default:
			return 0, fmt.Errorf("cfg: edge %s->%s not in terminator", rt.LabelText(from.Label), rt.LabelText(to.Label))
		}
		mid.Preds = append(edges[2*i:2*i:2*i+1], from)
		mid.Succs = append(edges[2*i+1:2*i+1:2*i+2], to)
		from.Succs[e.arm] = mid
		to.Preds[to.PredIndex(from)] = mid
		rt.Blocks = append(rt.Blocks, mid)
	}
	// Build lists each block's predecessors in block order. The ones
	// not split away are still in it, and the new blocks, at the end of
	// the routine, take the places of the sources they were split from.
	byIndex := func(x, y *iloc.Block) int { return x.Index - y.Index }
	for _, b := range rt.Blocks[:n0] {
		if !slices.IsSortedFunc(b.Preds, byIndex) {
			slices.SortFunc(b.Preds, byIndex)
		}
	}
	return len(critical), nil
}
