package iloc_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/iloc"
	"repro/internal/interp"
)

// TestManyLabelsLinear parses, verifies, builds the CFG of and runs a
// routine with 200,000 blocks and 200,000 data items. Each label is
// resolved through an index, so the work is linear in the labels; a
// scan per lookup makes it quadratic, minutes instead of well under a
// second.
func TestManyLabelsLinear(t *testing.T) {
	const n = 200_000
	var src strings.Builder
	src.WriteString("routine many()\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "data d%d ro 1 = %d\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "b%d:\n    jmp b%d\n", i, i+1)
	}
	fmt.Fprintf(&src, "b%d:\n    rload r1, d%d, 0\n    retr r1\n", n, n-1)

	start := time.Now()
	rt, err := iloc.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Blocks) != n+1 || len(rt.Data) != n {
		t.Fatalf("parsed %d blocks and %d data items, want %d and %d", len(rt.Blocks), len(rt.Data), n+1, n)
	}
	if err := iloc.Verify(rt, false); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	e, err := interp.New(rt, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != n-1 {
		t.Fatalf("returned %d, want %d", out.RetInt, n-1)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("%d labels took %v", n, d)
	}
}
