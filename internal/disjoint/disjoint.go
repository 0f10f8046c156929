// Package disjoint implements a disjoint-set (union-find) forest.
//
// Renumber uses it to union SSA values into live ranges, and the coalescer
// keeps unioning live ranges as copies are removed — exactly the "fast
// disjoint-set union" role described in §4.1 of the paper.
package disjoint

import "slices"

// Sets is a union-find forest over the integers 0..n-1, using union by
// rank and path halving.
type Sets struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns a forest of n singleton sets.
func New(n int) *Sets {
	s := new(Sets)
	s.Reset(n)
	return s
}

// Reset makes s a forest of n singleton sets, reusing its storage when
// that is large enough. The zero value may be Reset.
func (s *Sets) Reset(n int) {
	s.parent = slices.Grow(s.parent[:0], n)[:n]
	for i := range s.parent {
		s.parent[i] = int32(i)
	}
	s.rank = slices.Grow(s.rank[:0], n)[:n]
	clear(s.rank)
	s.count = n
}

// Footprint returns the bytes of storage s holds.
func (s *Sets) Footprint() int { return 4*cap(s.parent) + cap(s.rank) }

// Len returns the number of elements in the forest.
func (s *Sets) Len() int { return len(s.parent) }

// Count returns the current number of disjoint sets.
func (s *Sets) Count() int { return s.count }

// Find returns the canonical representative of x's set.
func (s *Sets) Find(x int) int {
	for s.parent[x] != int32(x) {
		s.parent[x] = s.parent[s.parent[x]] // path halving
		x = int(s.parent[x])
	}
	return x
}

// Union merges the sets containing x and y and returns the representative
// of the merged set. It reports false if x and y were already together.
func (s *Sets) Union(x, y int) (root int, merged bool) {
	rx, ry := s.Find(x), s.Find(y)
	if rx == ry {
		return rx, false
	}
	if s.rank[rx] < s.rank[ry] {
		rx, ry = ry, rx
	}
	s.parent[ry] = int32(rx)
	if s.rank[rx] == s.rank[ry] {
		s.rank[rx]++
	}
	s.count--
	return rx, true
}

// Compact renames the sets' representatives 0, 1, ... in ascending
// order and drops every other element, leaving one singleton per set.
// Each representative keeps its rank, so later unions choose the
// representatives they would have chosen under the old names. It
// returns, in names' storage, the new name of every old element's set.
func (s *Sets) Compact(names []int32) []int32 {
	n := len(s.parent)
	names = slices.Grow(names[:0], n)[:n]
	k := 0
	for x := range n {
		if s.parent[x] == int32(x) {
			names[x] = int32(k)
			s.rank[k] = s.rank[x] // k <= x: no rank still to read is overwritten
			k++
		}
	}
	for x := range n {
		names[x] = names[s.Find(x)]
	}
	for i := range k {
		s.parent[i] = int32(i)
	}
	s.parent, s.rank, s.count = s.parent[:k], s.rank[:k], k
	return names
}

// Same reports whether x and y are in the same set.
func (s *Sets) Same(x, y int) bool { return s.Find(x) == s.Find(y) }

// Grow appends extra singleton sets so the forest covers 0..n-1. It is a
// no-op when the forest is already at least that large.
func (s *Sets) Grow(n int) {
	for i := len(s.parent); i < n; i++ {
		s.parent = append(s.parent, int32(i))
		s.rank = append(s.rank, 0)
		s.count++
	}
}
