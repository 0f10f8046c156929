// Package ig implements the interference graph with the dual
// representation Chaitin advocated and the paper retains: a triangular
// bit matrix for constant-time interference queries plus adjacency
// vectors for fast neighbor iteration.
package ig

import (
	"fmt"
	"math/bits"
	"slices"
)

// Graph is an undirected interference graph over nodes 0..n-1. Node ids
// are live-range names (union-find roots); node 0 — the reserved register
// — is never used but keeps indexing aligned with register numbers.
type Graph struct {
	n      int
	matrix []uint64 // triangular bit matrix, bit(i,j) with i > j
	adj    [][]int32
	degree []int32
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	g := new(Graph)
	g.Reset(n)
	return g
}

// Reset empties g and resizes it to n nodes. It reuses the matrix, the
// degrees and every adjacency vector of earlier builds where they are
// large enough, so resetting to at most the largest earlier n allocates
// nothing, and neither does adding back edges the vectors held before.
// Vectors returned by Neighbors before the call are overwritten.
func (g *Graph) Reset(n int) {
	g.n = n
	words := (n*(n-1)/2 + 63) / 64
	g.matrix = slices.Grow(g.matrix[:0], words)[:words]
	clear(g.matrix)
	g.degree = slices.Grow(g.degree[:0], n)[:n]
	clear(g.degree)
	// Growing keeps the vectors past the old length, and so their storage.
	g.adj = slices.Grow(g.adj[:0], n)[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// Footprint returns the bytes of storage g holds, adjacency vectors
// included.
func (g *Graph) Footprint() int {
	b := 8*cap(g.matrix) + 4*cap(g.degree) + 24*cap(g.adj)
	for _, v := range g.adj[:cap(g.adj)] {
		b += 4 * cap(v)
	}
	return b
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

func (g *Graph) bit(i, j int) (word, mask uint64) {
	if i < j {
		i, j = j, i
	}
	idx := i*(i-1)/2 + j
	return uint64(idx / 64), 1 << uint(idx%64)
}

// Interfere reports whether nodes i and j are adjacent.
func (g *Graph) Interfere(i, j int) bool {
	if i == j {
		return false
	}
	w, m := g.bit(i, j)
	return g.matrix[w]&m != 0
}

// AddEdge connects i and j in both representations; duplicate and
// self edges are ignored.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		panic(fmt.Sprintf("ig: edge (%d,%d) outside [0,%d)", i, j, g.n))
	}
	w, m := g.bit(i, j)
	if g.matrix[w]&m != 0 {
		return
	}
	g.matrix[w] |= m
	g.adj[i] = append(g.adj[i], int32(j))
	g.adj[j] = append(g.adj[j], int32(i))
	g.degree[i]++
	g.degree[j]++
}

// Degree returns the number of neighbors of i.
func (g *Graph) Degree(i int) int { return int(g.degree[i]) }

// Neighbors returns the adjacency vector of i; the caller must not
// modify it.
func (g *Graph) Neighbors(i int) []int32 { return g.adj[i] }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int {
	c := 0
	for _, w := range g.matrix {
		c += bits.OnesCount64(w)
	}
	return c
}

// Merge folds node b into node a: every neighbor of b becomes a neighbor
// of a, and b is left isolated. The coalescer uses it to keep
// interference queries precise between graph rebuilds.
func (g *Graph) Merge(a, b int) {
	if a == b {
		return
	}
	for _, nb := range g.adj[b] {
		j := int(nb)
		if j == a {
			continue
		}
		// Drop the (b,j) edge from j's vector and the matrix; add (a,j).
		w, m := g.bit(b, j)
		g.matrix[w] &^= m
		g.removeFromAdj(j, b)
		g.degree[j]--
		g.AddEdge(a, j)
	}
	// If a and b interfered (should not happen for coalesced copies),
	// clear that edge too.
	if g.Interfere(a, b) {
		w, m := g.bit(a, b)
		g.matrix[w] &^= m
		g.removeFromAdj(a, b)
		g.degree[a]--
	}
	g.adj[b] = g.adj[b][:0]
	g.degree[b] = 0
}

func (g *Graph) removeFromAdj(i, j int) {
	v := g.adj[i]
	for k, x := range v {
		if int(x) == j {
			v[k] = v[len(v)-1]
			g.adj[i] = v[:len(v)-1]
			return
		}
	}
}

// SignificantNeighbors counts the neighbors of i whose degree is at least
// k ("significant degree" in §4.2's conservative-coalescing test).
func (g *Graph) SignificantNeighbors(i, k int) int {
	c := 0
	for _, nb := range g.adj[i] {
		if int(g.degree[nb]) >= k {
			c++
		}
	}
	return c
}

// CombinedSignificant counts the distinct neighbors of the would-be
// merged node a∪b that have significant degree (≥ k), treating a shared
// neighbor's degree as its current degree. Conservative coalescing
// combines a and b only when this count is < k.
func (g *Graph) CombinedSignificant(a, b, k int) int {
	c := 0
	for _, nb := range g.adj[a] {
		if int(nb) == b {
			continue
		}
		deg := int(g.degree[nb])
		// A neighbor of both a and b sees them merge into one node; its
		// degree drops by one.
		if g.Interfere(int(nb), b) {
			deg--
		}
		if deg >= k {
			c++
		}
	}
	for _, nb := range g.adj[b] {
		// Shared neighbors were counted with a's.
		if int(nb) == a || g.Interfere(int(nb), a) {
			continue
		}
		if int(g.degree[nb]) >= k {
			c++
		}
	}
	return c
}
