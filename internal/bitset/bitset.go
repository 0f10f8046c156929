// Package bitset provides dense bit sets sized at construction time.
//
// The allocator uses bit sets for liveness vectors, which the
// interference graph's builder ORs into its bit matrix a word at a
// time, so the operations here are tuned for word-at-a-time traversal
// rather than generality.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bit set. The zero value is an empty set of
// capacity zero; use New to create a set with room for n elements.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) *Set {
	s := new(Set)
	s.Reset(n)
	return s
}

// View returns a set of capacity n over the first Words(n) words of
// words, which it shares rather than copies: writes through the set
// change words, and later changes to words show through the set. The
// view is capped at those words, so nothing done through it reaches
// words beyond them (a Reset to a larger capacity moves it to storage
// of its own). words must hold Words(n) words whose bits from n up are
// clear.
func View(words []uint64, n int) Set {
	w := Words(n)
	return Set{words: words[:w:w], n: n}
}

// Words returns the number of 64-bit words a set of capacity n holds.
func Words(n int) int {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return (n + wordBits - 1) / wordBits
}

// Reset empties s and sets its capacity to n, reusing its storage when
// that is large enough, so a set resized to at most its largest earlier
// capacity allocates nothing. The zero value may be Reset.
func (s *Set) Reset(n int) {
	w := Words(n)
	s.words = slices.Grow(s.words[:0], w)[:w]
	clear(s.words)
	s.n = n
}

// Bits returns the set's words, shared rather than copied: element i is
// bit i%64 of word i/64, and the bits from Len() up are clear. The
// caller must not write them.
func (s *Set) Bits() []uint64 { return s.words }

// Footprint returns the bytes of storage s holds.
func (s *Set) Footprint() int { return 8 * cap(s.words) }

// Len returns the capacity of the set (the n passed to New or Reset).
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Clear removes every element.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy returns a new set with the same capacity and contents.
func (s *Set) Copy() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of t. The sets must have the
// same capacity.
func (s *Set) CopyFrom(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
}

// Equal reports whether s and t contain the same elements. Sets of
// different capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	s.mustMatch(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	s.mustMatch(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DifferenceWith removes from s every element of t.
func (s *Set) DifferenceWith(t *Set) {
	s.mustMatch(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersects reports whether s and t share any element.
func (s *Set) Intersects(t *Set) bool {
	s.mustMatch(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
