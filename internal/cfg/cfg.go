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
			to := rt.BlockByLabel(t.Label)
			if to == nil {
				return fmt.Errorf("cfg: jmp to unknown label %q", t.Label)
			}
			addEdge(b, to)
		case iloc.OpBr:
			to1, to2 := rt.BlockByLabel(t.Label), rt.BlockByLabel(t.Label2)
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
	return new(Orderer).ReversePostorder(rt)
}

// An Orderer computes reverse postorders in storage it keeps from one
// call to the next, so ordering a routine again allocates nothing. The
// zero value is ready to use.
type Orderer struct {
	seen  []bool
	stack []dfsFrame
	order []*iloc.Block
}

// dfsFrame is a block on the DFS path and its next successor to visit.
type dfsFrame struct {
	b    *iloc.Block
	next int
}

// ReversePostorder is the package's ReversePostorder in o's storage. The
// result is valid until o's next call.
func (o *Orderer) ReversePostorder(rt *iloc.Routine) []*iloc.Block {
	o.seen = slices.Grow(o.seen[:0], len(rt.Blocks))[:len(rt.Blocks)]
	clear(o.seen)
	o.order = slices.Grow(o.order[:0], len(rt.Blocks))
	entry := rt.Entry()
	o.seen[entry.Index] = true
	o.stack = append(o.stack[:0], dfsFrame{b: entry})
	for len(o.stack) > 0 {
		top := &o.stack[len(o.stack)-1]
		if top.next == len(top.b.Succs) {
			o.order = append(o.order, top.b)
			o.stack = o.stack[:len(o.stack)-1]
			continue
		}
		s := top.b.Succs[top.next]
		top.next++
		if !o.seen[s.Index] {
			o.seen[s.Index] = true
			o.stack = append(o.stack, dfsFrame{b: s})
		}
	}
	slices.Reverse(o.order)
	return o.order
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
