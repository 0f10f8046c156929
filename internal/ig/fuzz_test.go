package ig

import (
	"fmt"
	"slices"
	"testing"
)

// model is the graph as a set of edges, each stored both ways.
type model struct {
	n     int
	edges map[[2]int]bool
}

func (m *model) reset(n int) { m.n, m.edges = n, map[[2]int]bool{} }

func (m *model) add(i, j int) {
	if i != j {
		m.edges[[2]int{i, j}], m.edges[[2]int{j, i}] = true, true
	}
}

func (m *model) remove(i, j int) { delete(m.edges, [2]int{i, j}); delete(m.edges, [2]int{j, i}) }

func (m *model) neighbors(i int) []int {
	var nb []int
	for j := range m.n {
		if m.edges[[2]int{i, j}] {
			nb = append(nb, j)
		}
	}
	return nb
}

// merge folds b into a as Graph.Merge does.
func (m *model) merge(a, b int) {
	if a == b {
		return
	}
	for _, j := range m.neighbors(b) {
		m.remove(b, j)
		if j != a {
			m.add(a, j)
		}
	}
}

// combinedSignificant counts the neighbors of a∪b of degree at least k,
// a shared neighbor's degree one less.
func (m *model) combinedSignificant(a, b, k int) int {
	c := 0
	for j := range m.n {
		inA, inB := m.edges[[2]int{a, j}], m.edges[[2]int{b, j}]
		if j == a || j == b || !inA && !inB {
			continue
		}
		deg := len(m.neighbors(j))
		if inA && inB {
			deg--
		}
		if deg >= k {
			c++
		}
	}
	return c
}

// check reports how g differs from m.
func check(g *Graph, m *model) error {
	if g.Len() != m.n {
		return fmt.Errorf("Len %d, want %d", g.Len(), m.n)
	}
	if got, want := g.NumEdges(), len(m.edges)/2; got != want {
		return fmt.Errorf("NumEdges %d, want %d", got, want)
	}
	for i := range m.n {
		want := m.neighbors(i)
		row := 0
		for j := range m.n {
			if g.Interfere(i, j) != g.Interfere(j, i) {
				return fmt.Errorf("Interfere(%d,%d) is not symmetric", i, j)
			}
			if g.Interfere(i, j) != m.edges[[2]int{i, j}] {
				return fmt.Errorf("Interfere(%d,%d) = %v", i, j, g.Interfere(i, j))
			}
			if g.Interfere(i, j) {
				row++
			}
		}
		var got []int
		for _, j := range g.Neighbors(i) {
			got = append(got, int(j))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) || g.Degree(i) != len(want) || row != len(want) {
			return fmt.Errorf("node %d: neighbors %v, degree %d, row of %d, want %v", i, got, g.Degree(i), row, want)
		}
	}
	return nil
}

// FuzzGraph runs a sequence of operations decoded from the input on a
// graph and on a map model, and checks the two agree after each:
// Interfere symmetric and equal to the model, every node's degree,
// adjacency vector and matrix row the same set, NumEdges, and
// CombinedSignificant over a few pairs. The sizes straddle the matrix's
// word boundaries, and Reset reuses the storage of larger graphs.
func FuzzGraph(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 1, 62, 63, 2, 5, 7, 1, 2, 63, 64})
	f.Add([]byte{2, 1, 0, 64, 1, 63, 64, 2, 64, 3, 0, 63, 64, 65, 3, 0, 64, 3, 1, 2})
	f.Add([]byte{3, 2, 128, 6, 0, 1, 64, 65, 127, 128, 200, 1, 128, 0, 3, 128, 0, 0, 2})
	f.Add([]byte{1, 2, 10, 7, 9, 11, 13, 15, 64, 65, 3, 10, 15, 0, 0, 2, 3, 4, 4, 1, 3, 4, 5})
	sizes := [...]int{63, 64, 65, 129}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var g Graph
		var m model
		n := sizes[next()%len(sizes)]
		g.Reset(n)
		m.reset(n)
		for step := 0; len(data) > 0; step++ {
			op := next() % 4
			var what string
			switch op {
			case 0: // Reset
				n = sizes[next()%len(sizes)]
				g.Reset(n)
				m.reset(n)
				what = fmt.Sprintf("Reset(%d)", n)
			case 1: // AddEdge
				i, j := next()%n, next()%n
				g.AddEdge(i, j)
				m.add(i, j)
				what = fmt.Sprintf("AddEdge(%d,%d)", i, j)
			case 2: // AddEdges from a set of up to 15 nodes, maybe i itself
				i, k := next()%n, next()%16
				set := make([]uint64, (n+63)/64)
				var nodes []int
				for range k {
					j := next() % n
					set[j/64] |= 1 << (j % 64)
					nodes = append(nodes, j)
				}
				g.AddEdges(i, set)
				for _, j := range nodes {
					m.add(i, j)
				}
				what = fmt.Sprintf("AddEdges(%d,%v)", i, nodes)
			case 3: // Merge
				a, b := next()%n, next()%n
				g.Merge(a, b)
				m.merge(a, b)
				what = fmt.Sprintf("Merge(%d,%d)", a, b)
			}
			if err := check(&g, &m); err != nil {
				t.Fatalf("step %d, %s: %v", step, what, err)
			}
			for _, k := range []int{1, 2, 3} {
				a, b := step%n, (step*7+1)%n
				if a == b || g.Interfere(a, b) {
					continue
				}
				if got, want := g.CombinedSignificant(a, b, k), m.combinedSignificant(a, b, k); got != want {
					t.Fatalf("step %d, after %s: CombinedSignificant(%d,%d,%d) = %d, want %d", step, what, a, b, k, got, want)
				}
			}
		}
	})
}

// AddEdges ignores the node itself and bits from Len() up, and rejects
// a set of the wrong width.
func TestAddEdgesMasksAndChecks(t *testing.T) {
	g := New(65)
	g.AddEdges(3, []uint64{1<<3 | 1<<5, ^uint64(0)})
	if g.Interfere(3, 3) || !g.Interfere(3, 5) || !g.Interfere(64, 3) || g.NumEdges() != 2 || g.Degree(3) != 2 {
		t.Fatalf("edges %d, degree %d", g.NumEdges(), g.Degree(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a one-word set for a two-word row did not panic")
		}
	}()
	g.AddEdges(3, []uint64{1})
}
