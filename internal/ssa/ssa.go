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

	// Routine is the routine the graph was built over; its PhiSlab
	// holds the φ-nodes' operands.
	Routine *iloc.Routine

	// The storage BuildInto reuses from one build to the next.
	counts    []int   // per-register definition-block counts, then per-value use counts
	defBlocks [][]int // indices of the definition blocks per original register
	defFlat   []int
	hasPhi    []int // per block: the last register given a φ there
	inWork    []int // per block: the last register that queued it
	work      []int // indices of the blocks left to visit
	cur       []int // per original register: the value it names at this point of the walk
	prev      []int // per value: the value its register named before it
	usesFlat  []*iloc.Instr
	nUses     int // uses the renaming walk counted
	// hwValues and hwUses are the most values and uses a build since the
	// last Forget wrote: past them the pointer tables hold nothing, so
	// Forget clears only those prefixes.
	hwValues, hwUses int
	// phis holds the build's φ-nodes, and phiAt the index of each one's
	// block. A φ lives only until renumber removes it, so the next
	// build overwrites them. Their operands go to the routine's PhiSlab.
	phis  []iloc.Instr
	phiAt []int
	// The renaming walk's state.
	tree      *dom.Tree
	renameErr error
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
// The definition blocks of each register come from live's Kill sets. It
// reuses the tables and φ-node slab an earlier build left in g, so a
// build no larger than an earlier one allocates nothing but the φ
// operands it appends to rt.PhiSlab and the longer instruction lists of
// the blocks that get φ-nodes. It overwrites the earlier graph,
// including any table or φ-node a caller still holds.
func BuildInto(g *Graph, rt *iloc.Routine, c iloc.Class, tree *dom.Tree, df [][]int, live *liveness.Info) error {
	nOrig := rt.NumRegs(c)
	nb := len(rt.Blocks)
	g.noteHighWater()
	// Definition blocks per original register, in block order: block b
	// defines v exactly when v is in Kill(b).
	counts := resetInts(g.counts, nOrig)
	total := 0
	for _, k := range live.Kill {
		k.ForEach(func(v int) {
			counts[v]++
			total++
		})
	}
	g.defBlocks, g.defFlat = carve(g.defBlocks, g.defFlat, counts, total)
	defBlocks := g.defBlocks
	for bi, k := range live.Kill {
		k.ForEach(func(v int) { defBlocks[v] = append(defBlocks[v], bi) })
	}

	// Place pruned φ-nodes. A φ's destination and arguments name the
	// original register it merges until the renaming walk reaches them.
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
				f := rt.Blocks[fi]
				if hasPhi[fi] == v || !live.LiveIn[fi].Has(v) {
					continue // pruning: dead φ never inserted
				}
				hasPhi[fi] = v
				g.phis = append(g.phis, rt.NewPhi(iloc.Reg{Class: c, N: int32(v)}, len(f.Preds)))
				g.phiAt = append(g.phiAt, fi)
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, fi)
				}
			}
		}
	}
	g.work = work
	g.insertPhis(rt, hasPhi)

	// Rename over the dominator tree. Every definition and every φ mints
	// one value, and no instruction defines more than one, so the value
	// tables are sized to the instructions up front. The walk counts
	// each value's uses as it renames them.
	size := 1
	for _, b := range rt.Blocks {
		size += len(b.Instrs)
	}
	g.Class = c
	g.DefOf = append(slices.Grow(g.DefOf[:0], size), nil)
	g.DefBlockOf = append(slices.Grow(g.DefBlockOf[:0], size), nil)
	g.OrigOf = append(slices.Grow(g.OrigOf[:0], size), 0)
	g.prev = append(slices.Grow(g.prev[:0], size), 0)
	g.counts, g.nUses = append(slices.Grow(counts[:0], size), 0), 0
	g.cur = resetInts(g.cur, nOrig)
	g.Routine, g.tree, g.renameErr = rt, tree, nil
	g.walk(rt.Entry().Index)
	err := g.renameErr
	g.tree, g.renameErr = nil, nil
	if err != nil {
		return err
	}
	g.NumValues = len(g.DefOf)
	rt.NextReg[c] = g.NumValues

	// Def-use chains, filled in code order.
	g.UsesOf, g.usesFlat = carve(g.UsesOf, g.usesFlat, g.counts, g.nUses)
	forEachUse(rt, c, func(v int, in *iloc.Instr) {
		g.UsesOf[v] = append(g.UsesOf[v], in)
	})
	return nil
}

// insertPhis puts each block's φ-nodes at its head in one splice, the
// φ of a later original register first. count is scratch of one int
// per block.
func (g *Graph) insertPhis(rt *iloc.Routine, count []int) {
	if len(g.phis) == 0 {
		return
	}
	clear(count)
	for _, bi := range g.phiAt {
		count[bi]++
	}
	for bi, k := range count {
		if k > 0 {
			b := rt.Blocks[bi]
			n := len(b.Instrs)
			b.Instrs = slices.Grow(b.Instrs, k)[:n+k]
			copy(b.Instrs[k:], b.Instrs[:n])
		}
	}
	// Block b's φ-nodes fill its first count[b] slots from the back.
	for i, bi := range g.phiAt {
		count[bi]--
		rt.Blocks[bi].Instrs[count[bi]] = &g.phis[i]
	}
}

// newName mints the value for one definition of orig, which names it
// until the walk leaves the block.
func (g *Graph) newName(orig int, def *iloc.Instr, b *iloc.Block) int {
	v := len(g.DefOf)
	g.DefOf = append(g.DefOf, def)
	g.DefBlockOf = append(g.DefBlockOf, b)
	g.OrigOf = append(g.OrigOf, orig)
	g.prev = append(g.prev, g.cur[orig])
	g.counts = append(g.counts, 0)
	g.cur[orig] = v
	return v
}

// top returns the value orig names at a use in the block labelled l,
// or in one of its φ arguments when phi is set, and counts the use. The error's location is formatted only when there is an error.
func (g *Graph) top(orig int, l iloc.Label, phi bool) int {
	v := g.cur[orig]
	if v == 0 {
		if g.renameErr == nil {
			label := g.Routine.LabelText(l)
			if phi {
				label += "(φ)"
			}
			g.renameErr = fmt.Errorf("ssa: use of undefined register %s%d at %s",
				map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[g.Class], orig, label)
		}
		return 0
	}
	g.counts[v]++
	g.nUses++
	return v
}

// walk renames block bi and then the blocks it dominates.
func (g *Graph) walk(bi int) {
	c := g.Class
	b := g.Routine.Blocks[bi]
	first := len(g.DefOf)
	for _, in := range b.Instrs {
		if in.Op == iloc.OpPhi {
			if in.Dst.Class != c {
				continue
			}
			in.Dst.N = int32(g.newName(int(in.Dst.N), in, b))
			continue
		}
		for i := range in.Src[:in.Op.NSrc()] {
			if in.Src[i].Class == c && in.Src[i].N != 0 {
				in.Src[i].N = int32(g.top(int(in.Src[i].N), b.Label, false))
			}
		}
		if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
			in.Dst.N = int32(g.newName(int(d.N), in, b))
		}
	}
	last := len(g.DefOf)
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
			arg := &g.Routine.PhiArgs(in)[pi]
			arg.N = int32(g.top(int(arg.N), s.Label, true))
		}
	}
	for _, child := range g.tree.Children[bi] {
		g.walk(child)
	}
	// Leaving the block, each register it defined names again what it
	// named on entry.
	for v := last - 1; v >= first; v-- {
		g.cur[g.OrigOf[v]] = g.prev[v]
	}
}

// Forget drops g's references into the routine it was built over,
// keeping the storage for the next BuildInto. The graph is empty after.
// It clears only the prefixes the builds since the last Forget wrote.
func (g *Graph) Forget() {
	g.noteHighWater()
	clearPrefix(g.DefOf, g.hwValues)
	clearPrefix(g.DefBlockOf, g.hwValues)
	clearPrefix(g.UsesOf, g.hwValues)
	clearPrefix(g.usesFlat, g.hwUses)
	g.hwValues, g.hwUses = 0, 0
	g.DefOf, g.DefBlockOf, g.UsesOf, g.OrigOf = g.DefOf[:0], g.DefBlockOf[:0], g.UsesOf[:0], g.OrigOf[:0]
	g.Routine = nil
	g.usesFlat = g.usesFlat[:0]
	g.NumValues = 0
}

// clearPrefix clears s's first n elements, or all of its capacity when
// that is smaller. The high-water mark is the longest of several
// tables, and a build that failed while renaming never carved UsesOf
// to DefOf's length.
func clearPrefix[T any](s []T, n int) { clear(s[:min(n, cap(s))]) }

// noteHighWater raises the high-water marks to the tables' lengths,
// before a build truncates them or Forget clears them. Each table only
// grows within a build, so its length then is the most it held.
func (g *Graph) noteHighWater() {
	g.hwValues = max(g.hwValues, len(g.DefOf), len(g.DefBlockOf), len(g.UsesOf))
	g.hwUses = max(g.hwUses, len(g.usesFlat))
}

// Footprint returns the bytes of storage g holds for reuse.
func (g *Graph) Footprint() int {
	const ptr, slice = 8, 24
	return ptr*(cap(g.DefOf)+cap(g.DefBlockOf)+cap(g.usesFlat)) +
		slice*(cap(g.UsesOf)+cap(g.defBlocks)) +
		8*(cap(g.OrigOf)+cap(g.counts)+cap(g.hasPhi)+cap(g.inWork)+cap(g.cur)+cap(g.prev)+cap(g.defFlat)+cap(g.work)+cap(g.phiAt)) +
		int(unsafe.Sizeof(iloc.Instr{}))*cap(g.phis)
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

// forEachUse calls f for every use of a class-c value, in code order.
func forEachUse(rt *iloc.Routine, c iloc.Class, f func(v int, in *iloc.Instr)) {
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			for _, u := range rt.Uses(in) {
				if u.Class == c && u.N != 0 {
					f(int(u.N), in)
				}
			}
		}
	}
}
