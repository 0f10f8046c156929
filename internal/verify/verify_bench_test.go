package verify_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/verify"
)

// BenchmarkCheck checks one allocated routine of the fixed corpus
// count=50,seed=7 (x86-64, remat) per op, cycling through the corpus,
// with the differential rule on as the allocator runs it.
func BenchmarkCheck(b *testing.B) {
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
	inputs := corpus.Routines(units)
	allocated := make([]*iloc.Routine, len(inputs))
	for i, rt := range inputs {
		res, err := core.Allocate(context.Background(), rt, core.Options{Machine: m, Strategy: "remat"})
		if err != nil {
			b.Fatal(err)
		}
		allocated[i] = res.Routine
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(inputs)
		if err := verify.Check(inputs[j], allocated[j], m, verify.Options{Differential: true}); err != nil {
			b.Fatal(err)
		}
	}
}
