// Package ig implements the interference graph with the dual
// representation Chaitin advocated and the paper retains: a bit matrix
// for constant-time interference queries plus adjacency vectors for
// fast neighbor iteration. The matrix is square and stored row by row,
// so each node's row is a run of words that a whole live set can be
// ORed into at once (AddEdges).
package ig

import (
	"fmt"
	"math/bits"
	"slices"
)

// Graph is an undirected interference graph over nodes 0..n-1. Node ids
// are live-range names; node 0 — the reserved register — is never used
// but keeps indexing aligned with register numbers.
type Graph struct {
	n, w   int      // nodes, and words per matrix row
	matrix []uint64 // row i is words [i*w, (i+1)*w): bit j set when i and j interfere
	// adj[i][:degree[i]] are i's neighbors. A vector is stored back only
	// when it grows, so building and resetting the graph write no
	// pointers.
	adj    [][]int32
	degree []int32
	edges  int
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
	g.n, g.w, g.edges = n, (n+63)/64, 0
	words := n * g.w
	g.matrix = slices.Grow(g.matrix[:0], words)[:words]
	clear(g.matrix)
	g.degree = slices.Grow(g.degree[:0], n)[:n]
	clear(g.degree)
	// Growing keeps the vectors past the old length, and so their storage.
	g.adj = slices.Grow(g.adj[:0], n)[:n]
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

// bit locates j in row i of the matrix.
func (g *Graph) bit(i, j int) (word int, mask uint64) {
	return i*g.w + j/64, 1 << uint(j%64)
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
	w, m = g.bit(j, i)
	g.matrix[w] |= m
	g.push(i, j)
	g.push(j, i)
	g.edges++
}

// AddEdges connects i with every node in set, a bit set of the graph's
// nodes in words (bit j%64 of word j/64 stands for node j), as AddEdge
// would one node at a time in ascending order. It ORs set into i's row
// a word at a time and then does per-edge work only for the edges that
// are new. set must hold exactly a row's words, (Len()+63)/64; i
// itself and bits from Len() up are ignored.
func (g *Graph) AddEdges(i int, set []uint64) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("ig: node %d outside [0,%d)", i, g.n))
	}
	if len(set) != g.w {
		panic(fmt.Sprintf("ig: set of %d words for a row of %d", len(set), g.w))
	}
	row := g.matrix[i*g.w : (i+1)*g.w]
	iw, im := i/64, uint64(1)<<uint(i%64)
	// i's own degree and vector stay in locals while the new edges are
	// appended; the vector is stored back only if it grew.
	d0, d, v := g.degree[i], g.degree[i], g.adj[i]
	grew := false
	for wi, x := range set {
		x &^= row[wi]
		if wi == iw {
			x &^= im
		}
		if wi == g.w-1 && g.n%64 != 0 {
			x &= 1<<uint(g.n%64) - 1
		}
		row[wi] |= x
		for ; x != 0; x &= x - 1 {
			j := wi*64 + bits.TrailingZeros64(x)
			g.matrix[j*g.w+iw] |= im
			if int(d) == len(v) {
				v = append(v[:d], int32(j))
				v, grew = v[:cap(v)], true
			} else {
				v[d] = int32(j)
			}
			d++
			g.push(j, i)
		}
	}
	if grew {
		g.adj[i] = v
	}
	g.degree[i] = d
	g.edges += int(d - d0)
}

// push appends j to i's adjacency vector.
func (g *Graph) push(i, j int) {
	d, v := int(g.degree[i]), g.adj[i]
	if d == len(v) {
		v = append(v[:d], int32(j))
		g.adj[i] = v[:cap(v)]
	} else {
		v[d] = int32(j)
	}
	g.degree[i]++
}

// disconnect clears the edge (i,j) from the matrix, the degrees and
// j's adjacency vector; i's vector is the caller's to fix.
func (g *Graph) disconnect(i, j int) {
	w, m := g.bit(i, j)
	g.matrix[w] &^= m
	w, m = g.bit(j, i)
	g.matrix[w] &^= m
	g.removeFromAdj(j, i)
	g.degree[i]--
	g.degree[j]--
	g.edges--
}

// Degree returns the number of neighbors of i.
func (g *Graph) Degree(i int) int { return int(g.degree[i]) }

// Neighbors returns the adjacency vector of i; the caller must not
// modify it.
func (g *Graph) Neighbors(i int) []int32 { return g.adj[i][:g.degree[i]] }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// Merge folds node b into node a: every neighbor of b becomes a neighbor
// of a, and b is left isolated. The coalescer uses it to keep
// interference queries precise between graph rebuilds.
func (g *Graph) Merge(a, b int) {
	if a == b {
		return
	}
	for _, nb := range g.Neighbors(b) {
		j := int(nb)
		if j == a {
			continue
		}
		// Drop the (b,j) edge; add (a,j).
		g.disconnect(b, j)
		g.AddEdge(a, j)
	}
	// If a and b interfered (should not happen for coalesced copies),
	// clear that edge too.
	if g.Interfere(a, b) {
		g.disconnect(b, a)
	}
	g.degree[b] = 0
}

func (g *Graph) removeFromAdj(i, j int) {
	v := g.Neighbors(i)
	for k, x := range v {
		if int(x) == j {
			v[k] = v[len(v)-1]
			return
		}
	}
}

// SignificantNeighbors counts the neighbors of i whose degree is at least
// k ("significant degree" in §4.2's conservative-coalescing test).
func (g *Graph) SignificantNeighbors(i, k int) int {
	c := 0
	for _, nb := range g.Neighbors(i) {
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
	for _, nb := range g.Neighbors(a) {
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
	for _, nb := range g.Neighbors(b) {
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
