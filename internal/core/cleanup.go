package core

import (
	"repro/internal/cfg"
	"repro/internal/iloc"
)

// threadJumps retargets branches that point at empty jump-only blocks —
// the critical-edge landing pads whose split copies were coalesced or
// never materialized — and prunes the blocks once nothing reaches them.
// Without this, every allocation would pay one extra jmp per edge the
// allocator split, in both modes.
func (a *allocator) threadJumps() error {
	rt := a.rt
	// An empty block is a non-entry block holding exactly one jmp;
	// hop[l] is the target of the empty block labelled l, or -1.
	var hop []iloc.Label
	for _, b := range rt.Blocks[1:] {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == iloc.OpJmp {
			if hop == nil {
				hop = make([]iloc.Label, len(rt.Labels))
				for i := range hop {
					hop[i] = -1
				}
			}
			hop[b.Label] = b.Instrs[0].Label
		}
	}
	if hop == nil {
		return nil
	}
	// Resolve chains of empty blocks; a cycle of empty jumps (an empty
	// infinite loop) resolves to the first label it revisits and is left
	// alone. seen[l] == walk marks the labels the current walk passed.
	seen := make([]int, len(hop))
	walk := 0
	final := func(l iloc.Label) iloc.Label {
		walk++
		for hop[l] >= 0 && seen[l] != walk {
			seen[l] = walk
			l = hop[l]
		}
		return l
	}
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		switch in.Op {
		case iloc.OpJmp:
			in.Label = final(in.Label)
		case iloc.OpBr:
			in.Label = final(in.Label)
			in.Label2 = final(in.Label2)
		}
	})
	// Rebuilding the CFG prunes the now-unreachable empties.
	return cfg.Build(rt)
}
