package ssa

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
)

var sink *Graph

// BenchmarkBuild converts both classes of every routine of a fixed
// corpus to SSA per op, as renumber does. Build rewrites its routine, so
// each op starts from fresh clones prepared outside the timer.
func BenchmarkBuild(b *testing.B) {
	spec, err := corpus.ParseSpec("count=50,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	inputs := corpus.Routines(units)
	for _, rt := range inputs {
		if err := cfg.Build(rt); err != nil {
			b.Fatal(err)
		}
		if _, err := cfg.SplitCriticalEdges(rt); err != nil {
			b.Fatal(err)
		}
	}
	type prepared struct {
		rt   *iloc.Routine
		tree *dom.Tree
		live [iloc.NumClasses]*liveness.Info
	}
	work := make([]prepared, len(inputs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, in := range inputs {
			p := prepared{rt: in.Clone()}
			p.tree = dom.Compute(p.rt)
			for c := iloc.Class(0); c < iloc.NumClasses; c++ {
				p.live[c] = liveness.Compute(p.rt, c)
			}
			work[j] = p
		}
		b.StartTimer()
		for _, p := range work {
			for c := iloc.Class(0); c < iloc.NumClasses; c++ {
				g, err := Build(p.rt, c, p.tree, p.live[c])
				if err != nil {
					b.Fatal(err)
				}
				sink = g
			}
		}
	}
}
