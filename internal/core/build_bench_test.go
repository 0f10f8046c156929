package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
)

// benchCorpus generates the fixed corpus the core microbenchmarks run
// over, and the machine they allocate for.
func benchCorpus(b *testing.B) ([]*iloc.Routine, Options) {
	b.Helper()
	spec, err := corpus.ParseSpec("count=50,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machines.Lookup("x86-64")
	if err != nil {
		b.Fatal(err)
	}
	return corpus.Routines(units), Options{Machine: m, Strategy: "remat"}.withDefaults()
}

// BenchmarkBuildGraph builds the interference graphs of both classes of
// every corpus routine per op, after the first round's cfa and renumber
// passes, into the scratch earlier builds left, as the coalesce rebuilds
// do.
func BenchmarkBuildGraph(b *testing.B) {
	rts, opts := benchCorpus(b)
	allocs := make([]*allocator, len(rts))
	for i, rt := range rts {
		a := newAllocator(context.Background(), rt, opts, strategyParams{remat: true}, new(scratch))
		if err := a.cfa(); err != nil {
			b.Fatal(err)
		}
		if _, err := a.renumber(); err != nil {
			b.Fatal(err)
		}
		allocs[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range allocs {
			for _, cs := range a.classes {
				a.buildGraph(cs)
			}
		}
	}
}

// BenchmarkRenumber runs the first round's cfa and renumber passes over
// every corpus routine per op, into one scratch as pooled allocations
// do. Renumber rewrites its routine, so each op starts from allocators
// over fresh clones made outside the timer.
func BenchmarkRenumber(b *testing.B) {
	rts, opts := benchCorpus(b)
	sc := new(scratch)
	allocs := make([]*allocator, len(rts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, rt := range rts {
			allocs[j] = newAllocator(context.Background(), rt, opts, strategyParams{remat: true}, sc)
		}
		b.StartTimer()
		for _, a := range allocs {
			if err := a.cfa(); err != nil {
				b.Fatal(err)
			}
			if _, err := a.renumber(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAllocateCorpus allocates one corpus routine per op, cycling
// through the corpus, so ns/op and allocs/op are per routine.
func BenchmarkAllocateCorpus(b *testing.B) {
	rts, opts := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(context.Background(), rts[i%len(rts)], opts); err != nil {
			b.Fatal(err)
		}
	}
}
