package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/iloc"
	"repro/internal/target"
)

// loopChain returns a routine of n one-block loops in a row, each
// counting r2 up. However long the chain, it has two live ranges, but
// SSA gives it a value per loop.
func loopChain(n int) string {
	var b strings.Builder
	b.WriteString("routine chain()\nentry:\n ldi r2, 0\n jmp l0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "l%d:\n addi r2, r2, 1\n br lt r2, l%d, l%d\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "l%d:\n retr r2\n", n)
	return b.String()
}

// Renumber names live ranges densely, so build's liveness and the
// interference matrix grow with live ranges, not SSA values: a chain of
// 20,000 loops allocates in linear time and space. Named by SSA value,
// the matrix alone would be 20,000²/2 bits.
func TestLongLoopChainAllocatesLinearly(t *testing.T) {
	rt := iloc.MustParse(loopChain(20000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := Allocate(context.Background(), rt, Options{Machine: target.Standard(), Strategy: "remat", DisableDegradation: true})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 || res.SpilledRanges != 0 {
		t.Fatalf("%d rounds, %d ranges spilled; want 1 round and no spill", len(res.Iterations), res.SpilledRanges)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%v, %d MiB allocated", elapsed, alloc>>20)
	if alloc > 256<<20 {
		t.Errorf("Allocate allocated %d MiB", alloc>>20)
	}
	if !raceEnabled && elapsed > time.Second {
		t.Errorf("Allocate took %v", elapsed)
	}
}
