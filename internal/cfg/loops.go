package cfg

import (
	"slices"

	"repro/internal/dom"
	"repro/internal/iloc"
)

// Loop is a natural loop: a header block and the set of blocks in its
// body (header included). Loops sharing a header are merged.
type Loop struct {
	Header *iloc.Block
	Blocks []*iloc.Block
	Depth  int   // nesting depth of this loop (outermost = 1)
	Parent *Loop // innermost enclosing loop, nil for outermost
}

// FindLoops discovers the natural loops of the routine from back edges
// (edges whose target dominates their source) and merges loops with the
// same header. The dominator tree must correspond to the current CFG.
// Loops come in header order, and each body in block order.
func FindLoops(rt *iloc.Routine, t *dom.Tree) []*Loop {
	var loops []*Loop
	// inBody[x] is 1 + the index of the last header whose body walk
	// reached block x.
	var inBody []int
	var stack []*iloc.Block
	for _, h := range rt.Blocks {
		mark := h.Index + 1
		for _, b := range h.Preds {
			if !t.Dominates(h.Index, b.Index) {
				continue
			}
			// Back edge b -> h: the body is h plus every block reaching
			// b without passing through h.
			if inBody == nil {
				inBody = make([]int, len(rt.Blocks))
			}
			if inBody[h.Index] != mark {
				inBody[h.Index] = mark
				loops = append(loops, &Loop{Header: h, Blocks: []*iloc.Block{h}})
			}
			l := loops[len(loops)-1]
			if inBody[b.Index] != mark {
				inBody[b.Index] = mark
				l.Blocks = append(l.Blocks, b)
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if inBody[p.Index] != mark {
						inBody[p.Index] = mark
						l.Blocks = append(l.Blocks, p)
						stack = append(stack, p)
					}
				}
			}
		}
	}
	if len(loops) == 0 {
		return nil
	}
	for _, l := range loops {
		slices.SortFunc(l.Blocks, func(x, y *iloc.Block) int { return x.Index - y.Index })
	}
	// Nesting: loop A encloses B if A contains B's header and A != B.
	// Natural loops with distinct headers are disjoint or nested, and a
	// loop's header dominates its body, so in reverse postorder the
	// headers of the loops holding a block come outermost first. Visiting
	// headers in that order, B's parent is the last loop visited that
	// holds B's header; inBody now records that as 1 + its position.
	clear(inBody)
	for _, h := range t.Order {
		i, ok := slices.BinarySearchFunc(loops, h.Index, func(l *Loop, x int) int { return l.Header.Index - x })
		if !ok {
			continue
		}
		l := loops[i]
		l.Depth = 1
		if p := inBody[h.Index]; p > 0 {
			l.Parent = loops[p-1]
			l.Depth = l.Parent.Depth + 1
		}
		for _, b := range l.Blocks {
			inBody[b.Index] = i + 1
		}
	}
	return loops
}

// Analyze builds the CFG, computes dominators, discovers loops and
// assigns each block its loop nesting depth (0 outside any loop). It
// returns the dominator tree and the loops for reuse by later phases.
func Analyze(rt *iloc.Routine) (*dom.Tree, []*Loop, error) {
	if err := Build(rt); err != nil {
		return nil, nil, err
	}
	t, loops := analyzeBuilt(rt)
	return t, loops, nil
}

// Prepare readies a routine for SSA construction, building its CFG
// once: Build, then SplitCriticalEdges, then the analyses of Analyze.
func Prepare(rt *iloc.Routine) (*dom.Tree, []*Loop, error) {
	if err := Build(rt); err != nil {
		return nil, nil, err
	}
	if _, err := SplitCriticalEdges(rt); err != nil {
		return nil, nil, err
	}
	t, loops := analyzeBuilt(rt)
	return t, loops, nil
}

// analyzeBuilt is Analyze on a routine whose CFG is already built.
func analyzeBuilt(rt *iloc.Routine) (*dom.Tree, []*Loop) {
	t := dom.Compute(rt)
	loops := FindLoops(rt, t)
	for _, b := range rt.Blocks {
		b.Depth = 0
	}
	for _, l := range loops {
		for _, b := range l.Blocks {
			if l.Depth > b.Depth {
				b.Depth = l.Depth
			}
		}
	}
	return t, loops
}
