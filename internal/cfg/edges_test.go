package cfg

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/iloc"
)

// TestManyCriticalEdgesLinear runs the cfa pass's steps (Build,
// SplitCriticalEdges, Analyze) over a chain of 50,000 br diamonds, each
// with one critical edge. A fresh label is found through one set of
// the routine's labels and dominance is an interval test, so the work
// is linear in the blocks; a block scan per split label and an idom
// walk per edge make it quadratic, tens of seconds instead of well under
// one.
func TestManyCriticalEdgesLinear(t *testing.T) {
	const n = 50_000
	var src strings.Builder
	src.WriteString("routine chain(r1)\nentry:\n    ldi r2, 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "d%d:\n    br lt r1, t%d, d%d\nt%d:\n    addi r2, r2, 1\n", i, i, i+1, i)
	}
	fmt.Fprintf(&src, "d%d:\n    retr r2\n", n)

	rt, err := iloc.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Build(rt); err != nil {
		t.Fatal(err)
	}
	split, err := SplitCriticalEdges(rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, loops, err := Analyze(rt); err != nil || len(loops) != 0 {
		t.Fatalf("Analyze: %d loops, err %v", len(loops), err)
	}
	elapsed := time.Since(start)
	if split != n {
		t.Fatalf("split %d critical edges, want %d", split, n)
	}
	if got, want := rt.Labels[rt.Blocks[len(rt.Blocks)-1].Label], fmt.Sprintf("d%d.x.d%d", n-1, n); got != want {
		t.Fatalf("last split block is %s, want %s", got, want)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("%d critical edges took %v", n, elapsed)
	}
}

// TestManyLoopsLinear runs the same steps over 50,000 consecutive
// one-block loops. Loops nest by one reverse-postorder walk of their
// headers; comparing every pair of loops made it quadratic.
func TestManyLoopsLinear(t *testing.T) {
	const n = 50_000
	var src strings.Builder
	src.WriteString("routine loops(r1)\nentry:\n    ldi r2, 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "l%d:\n    addi r2, r2, 1\n    br lt r2, l%d, l%d\n", i, i, i+1)
	}
	fmt.Fprintf(&src, "l%d:\n    retr r2\n", n)

	rt, err := iloc.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Build(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitCriticalEdges(rt); err != nil {
		t.Fatal(err)
	}
	_, loops, err := Analyze(rt)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(loops) != n {
		t.Fatalf("found %d loops, want %d", len(loops), n)
	}
	for _, l := range loops {
		if l.Parent != nil || l.Depth != 1 || len(l.Blocks) != 2 {
			t.Fatalf("loop at %s: parent %v, depth %d, %d blocks; want an outermost loop of 2", rt.Labels[l.Header.Label], l.Parent != nil, l.Depth, len(l.Blocks))
		}
	}
	if elapsed > 10*time.Second {
		t.Fatalf("%d loops took %v", n, elapsed)
	}
}
