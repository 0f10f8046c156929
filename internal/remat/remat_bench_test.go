package remat

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/ssa"
)

var sink []Tag

// BenchmarkPropagate propagates tags over the SSA graphs of both classes
// of every routine of the fixed corpus count=50,seed=7 per op: "fresh"
// with Propagate, "reused" with PropagateInto on the storage earlier
// propagations left, as the allocator's rounds propagate.
func BenchmarkPropagate(b *testing.B) {
	spec, err := corpus.ParseSpec("count=50,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*ssa.Graph
	for _, rt := range corpus.Routines(units) {
		if err := cfg.Build(rt); err != nil {
			b.Fatal(err)
		}
		if _, err := cfg.SplitCriticalEdges(rt); err != nil {
			b.Fatal(err)
		}
		tree := dom.Compute(rt)
		var lives [iloc.NumClasses]*liveness.Info
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			lives[c] = liveness.Compute(rt, c)
		}
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			g, err := ssa.Build(rt, c, tree, lives[c])
			if err != nil {
				b.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				sink = Propagate(g)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var work []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				sink = PropagateInto(sink, &work, g)
			}
		}
	})
}
