package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/disjoint"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/ssa"
)

// ssaSpill is the SSA-form spill-everywhere allocator, after Bouchez,
// Darte and Rastello ("On the Complexity of Spill Everywhere under SSA
// Form"): the routine is converted to pruned SSA per register class
// (internal/ssa over the sparse liveness solution of internal/liveness,
// per the Tavares et al. sparse-analysis framing), every SSA value is
// spilled at its definition and reloaded at each use, and φ-nodes are
// resolved entirely in memory — the φ's destination and arguments form a
// congruence web that shares one frame slot, so the φ itself vanishes
// without a copy. Out of conventional SSA (which ssa.Build produces
// directly from non-SSA input) φ-congruent values never interfere, so
// the shared slot is sound.
//
// Compared with the plain spill-everywhere construction this buys three
// things from the SSA form: slots are per *web* rather than per original
// register (two independent webs of one register no longer share a
// frame word), pruned φ-insertion keeps dead merges from materializing,
// and a value whose slot is never read — no non-φ use anywhere in its
// web — skips its store outright. Like spillEverywhere it is a linear,
// non-iterating construction: it terminates on any verifiable input and
// can never spill-loop, which is what lets it stand as a first-class
// strategy rather than only a degradation path.
//
// Scratch registers are colors 1 and 2 of each bank, dead between
// instructions, so nothing is live across a call and the caller-save
// discipline holds trivially.
func ssaSpill(input *iloc.Routine, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recovered(input.Name, "ssa-spill", 0, r)
		}
	}()

	rt := input.Clone()
	tree, _, err := cfg.Prepare(rt)
	if err != nil {
		return nil, err
	}

	// Liveness for both classes must precede SSA construction (the
	// solver rejects φ-nodes), then each class converts to pruned SSA.
	lives := liveness.ComputeAll(rt)
	var graphs [iloc.NumClasses]*ssa.Graph
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		g, err := ssa.Build(rt, c, tree, lives[c])
		if err != nil {
			return nil, fmt.Errorf("core: ssa-spill: %w", err)
		}
		graphs[c] = g
	}

	// φ-congruence webs: union every φ destination with its arguments.
	// The web is the unit of slot assignment; deleting the φ leaves its
	// data flow to the shared slot.
	var webs [iloc.NumClasses]*disjoint.Sets
	for c := range graphs {
		webs[c] = disjoint.New(graphs[c].NumValues)
	}
	for _, b := range rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != iloc.OpPhi {
				kept = append(kept, in)
				continue
			}
			for _, arg := range rt.PhiArgs(in) {
				webs[in.Dst.Class].Union(int(in.Dst.N), int(arg.N))
			}
		}
		b.Instrs = kept
	}

	// A web's slot is read only by the non-φ uses of its values; a web
	// with none never needs its stores (the defining instructions still
	// execute — into a scratch color — but nothing is kept).
	var slotRead [iloc.NumClasses][]bool
	for c, g := range graphs {
		slotRead[c] = make([]bool, g.NumValues)
		for v := 1; v < g.NumValues; v++ {
			for _, use := range g.UsesOf[v] {
				if use.Op != iloc.OpPhi {
					slotRead[c][webs[c].Find(v)] = true
					break
				}
			}
		}
	}

	web := func(c iloc.Class, n int) int { return webs[c].Find(n) }
	read := func(c iloc.Class, n int) bool { return slotRead[c][webs[c].Find(n)] }
	return spillAll(rt, input.LocalWords(), opts.Machine, "ssa-spill", web, read)
}
