package ig

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	g := New(5)
	if g.Len() != 5 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	if g.Interfere(1, 2) {
		t.Fatal("no edges yet")
	}
	if g.Degree(1) != 0 {
		t.Fatal("degree wrong")
	}
}

func TestResetEmptiesAndReusesStorage(t *testing.T) {
	edges := [][2]int{{1, 2}, {2, 7}, {1, 7}, {3, 9}, {9, 1}}
	g := New(10)
	build := func() {
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
	}
	build()
	g.Merge(1, 3)
	g.Reset(10)
	if g.Len() != 10 || g.NumEdges() != 0 || g.Interfere(1, 2) || g.Degree(7) != 0 || len(g.Neighbors(1)) != 0 {
		t.Fatal("Reset left edges behind")
	}
	// A rebuild after Reset lists neighbors in the order a fresh graph
	// does, which keeps allocation byte-identical.
	build()
	fresh := New(10)
	for _, e := range edges {
		fresh.AddEdge(e[0], e[1])
	}
	for v := 0; v < 10; v++ {
		if got, want := g.Neighbors(v), fresh.Neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("node %d: %v after Reset, %v fresh", v, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { g.Reset(10); build() }); n != 0 {
		t.Fatalf("Reset to the same n and rebuilding allocated %v times", n)
	}
	if n := testing.AllocsPerRun(10, func() { g.Reset(4) }); n != 0 {
		t.Fatalf("Reset to a smaller n allocated %v times", n)
	}
	if g.Len() != 4 || g.NumEdges() != 0 {
		t.Fatal("Reset to a smaller n left edges behind")
	}
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := New(10)
	g.AddEdge(2, 7)
	if !g.Interfere(2, 7) || !g.Interfere(7, 2) {
		t.Fatal("edge not symmetric")
	}
	if g.Degree(2) != 1 || g.Degree(7) != 1 {
		t.Fatal("degrees wrong")
	}
	if g.NumEdges() != 1 {
		t.Fatal("edge count wrong")
	}
}

func TestDuplicateAndSelfEdges(t *testing.T) {
	g := New(10)
	g.AddEdge(2, 7)
	g.AddEdge(7, 2)
	g.AddEdge(2, 7)
	if g.Degree(2) != 1 || g.NumEdges() != 1 {
		t.Fatal("duplicate edge counted")
	}
	g.AddEdge(3, 3)
	if g.Degree(3) != 0 {
		t.Fatal("self edge counted")
	}
	if g.Interfere(3, 3) {
		t.Fatal("self interference")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3).AddEdge(1, 3)
}

func TestNeighbors(t *testing.T) {
	g := New(6)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 5)
	nb := g.Neighbors(1)
	if len(nb) != 3 {
		t.Fatalf("neighbors = %v", nb)
	}
	want := map[int32]bool{2: true, 3: true, 5: true}
	for _, x := range nb {
		if !want[x] {
			t.Fatalf("unexpected neighbor %d", x)
		}
	}
}

func TestMerge(t *testing.T) {
	// 1-2, 2-3, 1-4. Merge 2 into 1: 1 gets 3; 4 kept; 2 isolated.
	g := New(6)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 4)
	g.Merge(1, 2)
	if g.Degree(2) != 0 || len(g.Neighbors(2)) != 0 {
		t.Fatal("merged node not isolated")
	}
	if !g.Interfere(1, 3) || !g.Interfere(1, 4) {
		t.Fatal("merged edges missing")
	}
	if g.Interfere(1, 2) || g.Interfere(2, 3) {
		t.Fatal("stale edges remain")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("degree(1) = %d, want 2", g.Degree(1))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("degree(3) = %d, want 1 (edge moved, not duplicated)", g.Degree(3))
	}
}

func TestMergeSharedNeighbor(t *testing.T) {
	// 1-3, 2-3: merging 2 into 1 must leave a single 1-3 edge.
	g := New(5)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.Merge(1, 2)
	if g.Degree(3) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees after merge: d3=%d d1=%d", g.Degree(3), g.Degree(1))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
}

func TestSignificantNeighbors(t *testing.T) {
	// Star: center 1 connected to 2,3,4; also 2-3 so 2,3 have degree 2.
	g := New(6)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 3)
	if got := g.SignificantNeighbors(1, 2); got != 2 {
		t.Fatalf("sig(1,k=2) = %d, want 2 (nodes 2 and 3)", got)
	}
	if got := g.SignificantNeighbors(1, 3); got != 0 {
		t.Fatalf("sig(1,k=3) = %d, want 0", got)
	}
}

func TestCombinedSignificant(t *testing.T) {
	// a=1, b=2 share neighbor 3 (degree 2); 4 is neighbor of a only
	// (degree 1). k=2: 3's degree drops to 1 after merge -> count 0.
	g := New(6)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(1, 4)
	if got := g.CombinedSignificant(1, 2, 2); got != 0 {
		t.Fatalf("combined sig = %d, want 0", got)
	}
	if got := g.CombinedSignificant(1, 2, 1); got != 2 {
		t.Fatalf("combined sig k=1 = %d, want 2 (nodes 3 and 4)", got)
	}
}

// Property: matrix and adjacency representations agree after random
// edge insertions, on graphs of one word and of three words a row.
func TestQuickDualRepresentation(t *testing.T) {
	for _, n := range []int{30, 130} {
		testQuickDualRepresentation(t, n)
	}
}

func testQuickDualRepresentation(t *testing.T, n int) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		ref := make(map[[2]int]bool)
		addRef := func(i, j int) {
			if i == j {
				return
			}
			if i < j {
				i, j = j, i
			}
			ref[[2]int{i, j}] = true
		}
		for step := 0; step < 200*n/30; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			g.AddEdge(i, j)
			addRef(i, j)
		}
		// Check matrix vs reference.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if g.Interfere(i, j) != ref[[2]int{i, j}] {
					return false
				}
			}
		}
		// Degrees match adjacency lengths and edge count doubles.
		total := 0
		for i := 0; i < n; i++ {
			if g.Degree(i) != len(g.Neighbors(i)) {
				return false
			}
			total += g.Degree(i)
		}
		return total == 2*g.NumEdges() && g.NumEdges() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge preserves the neighbor set (modulo the merged pair),
// on graphs of one word and of three words a row.
func TestQuickMerge(t *testing.T) {
	for _, n := range []int{20, 130} {
		testQuickMerge(t, n)
	}
}

func testQuickMerge(t *testing.T, n int) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		type edge [2]int
		edges := map[edge]bool{}
		for step := 0; step < 3*n; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			g.AddEdge(i, j)
			if i < j {
				i, j = j, i
			}
			edges[edge{i, j}] = true
		}
		a, b := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
		if a == b {
			return true
		}
		want := map[int]bool{}
		for e := range edges {
			for k := 0; k < 2; k++ {
				x, y := e[k], e[1-k]
				if (x == a || x == b) && y != a && y != b {
					want[y] = true
				}
			}
		}
		g.Merge(a, b)
		if g.Degree(b) != 0 {
			return false
		}
		got := map[int]bool{}
		for _, nb := range g.Neighbors(a) {
			got[int(nb)] = true
		}
		if len(got) != len(want) {
			return false
		}
		for x := range want {
			if !got[x] || !g.Interfere(a, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
