package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResetEmptiesAndReusesStorage(t *testing.T) {
	var s Set // the zero value may be Reset
	s.Reset(130)
	s.Add(129)
	s.Reset(64)
	if !s.Empty() || s.Len() != 64 || s.Has(129) {
		t.Fatalf("after Reset(64): len %d, elements %v", s.Len(), s.Elements())
	}
	s.Add(63)
	if n := testing.AllocsPerRun(10, func() { s.Reset(130); s.Reset(10) }); n != 0 {
		t.Fatalf("Reset within the largest earlier capacity allocated %v times", n)
	}
	if !s.Empty() || s.Len() != 10 {
		t.Fatal("Reset did not empty the set")
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
}

func TestAddHasRemove(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Has(i) {
			t.Fatalf("Has(%d) before Add", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("!Has(%d) after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Fatal("Has out of range should be false")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Add(4)
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestClear(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 3 {
		s.Add(i)
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("set not empty after Clear")
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(1)
	b.Add(65)
	if !a.UnionWith(b) {
		t.Fatal("UnionWith should report change")
	}
	if !a.Has(1) || !a.Has(65) {
		t.Fatal("union missing elements")
	}
	if a.UnionWith(b) {
		t.Fatal("second UnionWith should report no change")
	}
}

func TestIntersectWith(t *testing.T) {
	a, b := New(70), New(70)
	for _, i := range []int{1, 2, 3, 64} {
		a.Add(i)
	}
	for _, i := range []int{2, 64, 69} {
		b.Add(i)
	}
	a.IntersectWith(b)
	want := []int{2, 64}
	got := a.Elements()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDifferenceWith(t *testing.T) {
	a, b := New(70), New(70)
	for _, i := range []int{1, 2, 64} {
		a.Add(i)
	}
	b.Add(2)
	a.DifferenceWith(b)
	if a.Has(2) || !a.Has(1) || !a.Has(64) {
		t.Fatalf("difference wrong: %v", a)
	}
}

func TestIntersects(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(64)
	if a.Intersects(b) {
		t.Fatal("disjoint sets should not intersect")
	}
	b.Add(64)
	if !a.Intersects(b) {
		t.Fatal("sets sharing 64 should intersect")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestCopyIndependent(t *testing.T) {
	a := New(70)
	a.Add(5)
	b := a.Copy()
	b.Add(6)
	if a.Has(6) {
		t.Fatal("Copy aliases original")
	}
	if !b.Has(5) {
		t.Fatal("Copy lost element")
	}
}

func TestCopyFromAndEqual(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(5)
	a.Add(69)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom should produce equal set")
	}
	b.Add(6)
	if a.Equal(b) {
		t.Fatal("sets differ, Equal true")
	}
	if a.Equal(New(71)) {
		t.Fatal("different capacity sets should not be equal")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(130)
	in := []int{129, 0, 64, 63, 65}
	for _, i := range in {
		s.Add(i)
	}
	got := s.Elements()
	want := []int{0, 63, 64, 65, 129}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: a bitset behaves like a map[int]bool under a random operation
// sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 150
		s := New(n)
		m := make(map[int]bool)
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				m[i] = true
			case 1:
				s.Remove(i)
				delete(m, i)
			case 2:
				if s.Has(i) != m[i] {
					return false
				}
			}
		}
		if s.Count() != len(m) {
			return false
		}
		for i := range m {
			if !s.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative on contents.
func TestQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a1, b1 := New(256), New(256)
		for _, x := range xs {
			a1.Add(int(x))
		}
		for _, y := range ys {
			b1.Add(int(y))
		}
		a2, b2 := b1.Copy(), a1.Copy()
		a1.UnionWith(b1)
		a2.UnionWith(b2)
		return a1.Equal(a2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DeMorgan-ish — (A ∪ B) \ B ⊆ A and never intersects B.
func TestQuickDifferenceAfterUnion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u := a.Copy()
		u.UnionWith(b)
		u.DifferenceWith(b)
		if u.Intersects(b) {
			return false
		}
		ok := true
		u.ForEach(func(i int) {
			if !a.Has(i) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
