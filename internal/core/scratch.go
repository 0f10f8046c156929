package core

import (
	"sync"
	"unsafe"

	"repro/internal/iloc"
)

// scratch is the storage one allocation's rounds reuse: the per-class
// tables every pass resets in place (classState). Allocate takes one
// from scratchPool and gives it back when the call returns, so a
// steady stream of allocations stops allocating tables at all once
// the pooled scratches have grown to the routines' size.
type scratch struct {
	classes [iloc.NumClasses]classState
	// phiSlab is the routine's PhiSlab while renumber has it in SSA form.
	phiSlab []iloc.Reg
}

// maxPooledScratch is the largest footprint a scratch may have and still
// go back to the pool. The graph matrix grows with the square of a
// routine's live ranges, so one hostile body can leave a scratch of many
// megabytes; such a scratch is dropped when its call returns instead of
// pinning that memory in the pool. One scratch reused across all of a
// bench corpus or all of the suite kernels grows to at most about
// 150 KB, so every ordinary routine keeps its scratch pooled.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// releaseScratch returns s to the pool unless its footprint exceeds
// maxPooledScratch, and reports whether it did. A pooled scratch first
// drops its references into the finished routine, so the pool never
// keeps a caller's result alive.
func releaseScratch(s *scratch) bool {
	if s.footprint() > maxPooledScratch {
		return false
	}
	for c := range s.classes {
		cs := &s.classes[c]
		cs.tags = restart(cs.tags, &cs.tagsHW)
		cs.out = restart(cs.out, &cs.outHW)
		cs.pending = restart(cs.pending, &cs.pendingHW)
		clear(cs.tags[:cs.tagsHW])
		clear(cs.out[:cs.outHW])
		clear(cs.pending[:cs.pendingHW])
		cs.tagsHW, cs.outHW, cs.pendingHW = 0, 0, 0
		cs.ssa.Forget()
	}
	scratchPool.Put(s)
	return true
}

// footprint returns the bytes of table storage s holds.
func (s *scratch) footprint() int {
	b := bytesOf(s.phiSlab)
	for c := range s.classes {
		cs := &s.classes[c]
		b += cs.sets.Footprint() + cs.graph.Footprint() + cs.live.Footprint() +
			cs.lv.Footprint() + cs.ssa.Footprint() +
			bytesOf(cs.tags) + bytesOf(cs.inCode) + bytesOf(cs.acrossCall) +
			bytesOf(cs.cost) + bytesOf(cs.mustNot) + bytesOf(cs.stack) +
			bytesOf(cs.colors) + bytesOf(cs.partners) + bytesOf(cs.spilled) +
			bytesOf(cs.refs) + bytesOf(cs.deg) + bytesOf(cs.removed) +
			bytesOf(cs.forbidden) + bytesOf(cs.nbColors) + bytesOf(cs.isSpilled) +
			bytesOf(cs.replaced) + bytesOf(cs.pending) + bytesOf(cs.tagWork) +
			bytesOf(cs.out) + bytesOf(cs.names) + 16*len(cs.slots)
		for _, p := range cs.partners[:cap(cs.partners)] {
			b += bytesOf(p)
		}
	}
	return b
}

// restart returns s emptied for a pass to refill, first raising *hw to
// the length s had. A table holding pointers is only appended to
// between restarts, so *hw then bounds the elements written since
// releaseScratch last cleared them.
func restart[T any](s []T, hw *int) []T {
	*hw = max(*hw, len(s))
	return s[:0]
}

// bytesOf returns the bytes of s's backing array.
func bytesOf[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
