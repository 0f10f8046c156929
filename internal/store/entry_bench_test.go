package store

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/machines"
)

// BenchmarkDecodeEntry decodes one stored entry per op back into the
// result a disk-tier hit serves — validate, hash, unmarshal the meta,
// re-parse the code — cycling through the entries of the fixed corpus
// count=50,seed=7 allocated on x86-64 with remat.
func BenchmarkDecodeEntry(b *testing.B) {
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
	opts := core.Options{Machine: m, Strategy: "remat"}
	optKey := driver.CanonicalOptionsKey(opts)
	var entries [][]byte
	for _, rt := range corpus.Routines(units) {
		res, err := core.Allocate(context.Background(), rt, opts)
		if err != nil {
			b.Fatal(err)
		}
		data, err := encodeResult(core.NewSnapshot(res), optKey)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeResultBytes(entries[i%len(entries)]); err != nil {
			b.Fatal(err)
		}
	}
}
