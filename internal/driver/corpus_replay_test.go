package driver

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/machines"
)

// TestCorpusReplayAcrossZoo is the driver-path acceptance test of the
// corpus engine: a generated corpus of over a thousand routines
// allocates across three zoo machines with the verifier on — zero
// errors, zero degradations — and per-machine results stay isolated in
// a shared cache because distinct machines never share a content key.
func TestCorpusReplayAcrossZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is the long acceptance path")
	}
	spec, err := corpus.ParseSpec("count=600,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	routines := corpus.Routines(units)
	if len(routines) < 1000 {
		t.Fatalf("corpus yields %d routines, want >= 1000", len(routines))
	}

	var work []Unit
	for _, rt := range routines {
		work = append(work, Unit{Name: rt.Name, Routine: rt})
	}

	zoo := []string{"standard", "x86-64", "embedded-8"}
	cache := NewCache(4 * len(routines))
	keys := map[Key]string{}
	for _, name := range zoo {
		m, err := machines.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Machine: m, Strategy: "remat", Verify: true}

		// Cache keys for this machine must be fresh: no routine's key
		// under this machine may collide with any key under another.
		for _, rt := range routines {
			k := KeyFor(rt, opts)
			if prev, dup := keys[k]; dup {
				t.Fatalf("machine %s shares cache key %s with %s for %s", name, k, prev, rt.Name)
			}
			keys[k] = name
		}

		batch := Allocate(context.Background(), work, Config{Options: opts, Cache: cache})
		hits := 0
		for i, r := range batch.Results {
			if r.Err != nil {
				t.Fatalf("machine %s: %s: %v", name, work[i].Name, r.Err)
			}
			if r.Result.Degraded {
				t.Fatalf("machine %s: %s degraded: %s", name, work[i].Name, r.Result.DegradeReason)
			}
			if r.CacheHit {
				hits++
			}
		}
		if hits != 0 {
			t.Fatalf("machine %s: %d cache hits on its first pass — keys leak across machines", name, hits)
		}
	}

	// A second pass on one machine is pure cache traffic: same corpus,
	// same machine, every unit hits.
	m, _ := machines.Lookup(zoo[0])
	opts := core.Options{Machine: m, Strategy: "remat", Verify: true}
	batch := Allocate(context.Background(), work, Config{Options: opts, Cache: cache})
	for i, r := range batch.Results {
		if r.Err != nil {
			t.Fatalf("replay %s: %v", work[i].Name, r.Err)
		}
		if !r.CacheHit {
			t.Fatalf("replay %s: cache miss on identical corpus + machine", work[i].Name)
		}
	}
}
