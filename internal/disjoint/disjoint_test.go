package disjoint

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	s := New(5)
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	for i := 0; i < 5; i++ {
		if s.Find(i) != i {
			t.Fatalf("Find(%d) = %d", i, s.Find(i))
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestUnionFind(t *testing.T) {
	s := New(6)
	root, merged := s.Union(0, 1)
	if !merged {
		t.Fatal("first union should merge")
	}
	if root != s.Find(0) || root != s.Find(1) {
		t.Fatal("root mismatch")
	}
	if _, merged := s.Union(1, 0); merged {
		t.Fatal("repeat union should not merge")
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	s.Union(2, 3)
	s.Union(0, 2)
	if !s.Same(1, 3) {
		t.Fatal("1 and 3 should be together")
	}
	if s.Same(1, 4) {
		t.Fatal("1 and 4 should be apart")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
}

func TestChainUnionTransitive(t *testing.T) {
	const n = 100
	s := New(n)
	for i := 0; i+1 < n; i++ {
		s.Union(i, i+1)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
	r := s.Find(0)
	for i := 0; i < n; i++ {
		if s.Find(i) != r {
			t.Fatalf("element %d not in the single set", i)
		}
	}
}

func TestGrow(t *testing.T) {
	s := New(2)
	s.Union(0, 1)
	s.Grow(5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if s.Find(4) != 4 {
		t.Fatal("grown element should be a singleton")
	}
	s.Grow(3) // no-op
	if s.Len() != 5 {
		t.Fatal("Grow shrank the forest")
	}
}

// Property: union-find agrees with a naive labeling implementation.
func TestQuickAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 60
		s := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for step := 0; step < 150; step++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Union(x, y)
				if label[x] != label[y] {
					relabel(label[x], label[y])
				}
			} else if s.Same(x, y) != (label[x] == label[y]) {
				return false
			}
		}
		// count distinct labels
		seen := map[int]bool{}
		for _, l := range label {
			seen[l] = true
		}
		return len(seen) == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Compact names the representatives densely in ascending order, and
// unions after it choose the representatives the uncompacted forest
// chooses, under the new names.
func TestCompactKeepsRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		const n = 60
		a, b := New(n), New(n)
		for step := 0; step < rng.Intn(80); step++ {
			x, y := rng.Intn(n), rng.Intn(n)
			a.Union(x, y)
			b.Union(x, y)
		}
		count := b.Count()
		names := b.Compact(nil)
		if b.Len() != count || b.Count() != count {
			t.Fatalf("Len %d, Count %d after Compact, want %d", b.Len(), b.Count(), count)
		}
		prev := int32(-1)
		for x := 0; x < n; x++ {
			if a.Find(x) == x {
				if names[x] != prev+1 {
					t.Fatalf("representative %d named %d, want %d", x, names[x], prev+1)
				}
				prev = names[x]
			}
		}
		for step := 0; step < 60; step++ {
			x, y := rng.Intn(n), rng.Intn(n)
			a.Union(x, y)
			b.Union(int(names[x]), int(names[y]))
			for z := 0; z < n; z++ {
				if got, want := b.Find(int(names[z])), int(names[a.Find(z)]); got != want {
					t.Fatalf("trial %d: element %d's set is %d after Compact, want %d", trial, z, got, want)
				}
			}
		}
	}
}
