package driver

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
)

// TestKeyCanonicalization: semantically equal options produce one key;
// anything that changes the allocation separates keys.
func TestKeyCanonicalization(t *testing.T) {
	rt := suite.ByName("fehl").Routine()

	// Same options, different presentation: defaulted vs explicit
	// machine, preset vs WithRegs, named vs renamed machine, zero vs
	// explicit default iteration bound.
	renamed := target.Standard().Clone()
	renamed.Name = "something-else"
	same := []core.Options{
		{},
		{Machine: target.Standard()},
		{Machine: target.WithRegs(16)},
		{Machine: renamed},
		{Machine: target.Standard(), MaxIterations: 32},
		{Strategy: "chaitin"},
		{Strategy: "chaitin:metric=cost/degree"},
	}
	base := KeyFor(rt, same[0])
	for i, o := range same[1:] {
		if k := KeyFor(rt, o); k != base {
			t.Fatalf("equivalent options %d produced a different key", i+1)
		}
	}

	// Different semantics: register count, strategy, split scheme,
	// metric, ablation switches, iteration bound.
	different := []core.Options{
		{Machine: target.WithRegs(8)},
		{Strategy: "remat"},
		{Strategy: "remat:split=all-loops"},
		{Strategy: "chaitin:metric=cost"},
		{Strategy: "remat:no-bias"},
		{Strategy: "remat:no-coalesce"},
		{Strategy: "remat:no-lookahead"},
		{MaxIterations: 5},
	}
	seen := map[Key]int{base: -1}
	for i, o := range different {
		k := KeyFor(rt, o)
		if prev, dup := seen[k]; dup {
			t.Fatalf("options %d and %d collide", prev, i)
		}
		seen[k] = i
	}

	// Different routines separate; a reparse of the same source does not.
	if KeyFor(suite.ByName("sgemm").Routine(), core.Options{}) == base {
		t.Fatal("different routines share a key")
	}
	if KeyFor(suite.ByName("fehl").Routine(), core.Options{}) != base {
		t.Fatal("reparsed identical routine changed the key")
	}
}

// TestCacheCounters drives one engine over a duplicated batch and checks
// the hit/miss arithmetic end to end.
func TestCacheCounters(t *testing.T) {
	cache := NewCache(0)
	eng := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Workers: 2, Cache: cache})
	k := suite.ByName("fehl")
	units := []Unit{
		{Name: "a", Routine: k.Routine()},
		{Name: "b", Routine: k.Routine()}, // identical content
	}

	cold := eng.Run(context.Background(), units)
	if err := cold.FirstErr(); err != nil {
		t.Fatal(err)
	}
	// Identical units racing may both miss (the cache is filled after
	// allocation), but at least one allocation really ran.
	st := cache.Stats()
	if st.Misses < 1 || st.Misses > 2 || st.Entries != 1 {
		t.Fatalf("cold stats: %+v", st)
	}

	warm := eng.Run(context.Background(), units)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != 2 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits, %d misses", warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	for _, r := range warm.Results {
		if !r.CacheHit {
			t.Fatalf("%s: expected a cache hit", r.Name)
		}
	}
	if got := cache.Stats(); got.Hits != st.Hits+2 {
		t.Fatalf("cache hits = %d, want %d", got.Hits, st.Hits+2)
	}
}

// TestCacheHitSemanticallyIdentical is the property test: a cache hit
// must be indistinguishable from a fresh allocation — byte-identical
// code, identical stats, and the same validated execution on a suite
// kernel under the interpreter.
func TestCacheHitSemanticallyIdentical(t *testing.T) {
	for _, name := range []string{"fehl", "sgemm"} {
		k := suite.ByName(name)
		opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}

		fresh, err := core.Allocate(context.Background(), k.Routine(), opts)
		if err != nil {
			t.Fatal(err)
		}

		eng := New(Config{Options: opts, Cache: NewCache(0)})
		miss := eng.Run(context.Background(), []Unit{{Name: name, Routine: k.Routine()}})
		hit := eng.Run(context.Background(), []Unit{{Name: name, Routine: k.Routine()}})
		if err := miss.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if err := hit.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if miss.Results[0].CacheHit || !hit.Results[0].CacheHit {
			t.Fatalf("%s: hit/miss flags wrong", name)
		}
		cached := hit.Results[0].Result
		if !reflect.DeepEqual(fingerprintOf(fresh), fingerprintOf(cached)) {
			t.Fatalf("%s: cached result differs from fresh allocation", name)
		}

		// Both must execute and pass the kernel's semantic check, with
		// identical dynamic behaviour.
		outFresh, err := k.Execute(fresh.Routine)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		outCached, err := k.Execute(cached.Routine)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		if !reflect.DeepEqual(outFresh.Counts, outCached.Counts) || outFresh.Steps != outCached.Steps {
			t.Fatalf("%s: dynamic behaviour differs (steps %d vs %d)", name, outFresh.Steps, outCached.Steps)
		}
	}
}

// TestCacheSnapshotIsolation: the cache and its callers never share
// mutable storage. Writing into the routine or the pass stats of the
// result that was stored, or of a hit, must leave every later hit as
// the allocation produced it, less the pass wall times a snapshot does
// not keep.
func TestCacheSnapshotIsolation(t *testing.T) {
	k := suite.ByName("fehl")
	eng := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Cache: NewCache(0)})
	run := func() UnitResult {
		return eng.Run(context.Background(), []Unit{{Name: "fehl", Routine: k.Routine()}}).Results[0]
	}
	stored := run().Result // the miss: the cache holds a snapshot of this result
	wantCode := iloc.Print(stored.Routine)
	var wantIters []core.IterationStats
	for _, it := range stored.Iterations {
		it.Passes = append([]core.PassStat(nil), it.Passes...)
		for j := range it.Passes {
			it.Passes[j].Time = 0
		}
		wantIters = append(wantIters, it)
	}
	vandalize := func(res *core.Result) {
		res.Routine.Blocks[0].Instrs[0].Imm = 12345
		res.Routine.Blocks[0].Instrs = nil
		res.Routine.Name = "clobbered"
		res.Iterations[0].Coalesced = 12345
		res.Iterations[0].Passes[0].Nodes = 12345
	}

	vandalize(stored)
	for i := range 2 {
		hit := run()
		if !hit.CacheHit {
			t.Fatal("expected a hit")
		}
		if got := iloc.Print(hit.Result.Routine); got != wantCode {
			t.Fatalf("hit %d: cached routine was corrupted by caller mutation:\n%s", i, got)
		}
		if !reflect.DeepEqual(hit.Result.Iterations, wantIters) {
			t.Fatalf("hit %d: cached iteration stats were corrupted by caller mutation:\n%+v", i, hit.Result.Iterations)
		}
		vandalize(hit.Result)
	}
}

// TestCacheEviction: the cache is bounded and evicts least recently
// used.
func TestCacheEviction(t *testing.T) {
	cache := NewCache(2)
	k := suite.ByName("fehl").Routine()
	keys := []Key{
		KeyFor(k, core.Options{Machine: target.WithRegs(6)}),
		KeyFor(k, core.Options{Machine: target.WithRegs(8)}),
		KeyFor(k, core.Options{Machine: target.WithRegs(10)}),
	}
	res, err := core.Allocate(context.Background(), k, core.Options{Machine: target.WithRegs(6)})
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(keys[0], res)
	cache.Put(keys[1], res)
	if _, ok := cache.Get(keys[0]); !ok { // refresh 0; 1 becomes LRU
		t.Fatal("entry 0 missing before eviction")
	}
	cache.Put(keys[2], res)

	st := cache.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if _, ok := cache.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := cache.Get(keys[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := cache.Get(keys[2]); !ok {
		t.Fatal("newest entry was evicted")
	}
	if rate := cache.Stats().HitRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("hit rate = %v", rate)
	}
}

// TestNilCacheIsInert: a nil *Cache behaves as "no caching" everywhere.
func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("x"); ok {
		t.Fatal("nil cache returned a value")
	}
	c.Put("x", &core.Result{})
	if c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Fatal("nil cache not inert")
	}
}

// TestKeyStrategySeparation: the cache key separates every registered
// strategy for identical input and collapses equivalent parameter
// spellings.
func TestKeyStrategySeparation(t *testing.T) {
	rt := suite.ByName("fehl").Routine()

	seen := map[Key]string{}
	for _, s := range core.Strategies() {
		k := KeyFor(rt, core.Options{Strategy: s.Name()})
		if prev, dup := seen[k]; dup {
			t.Fatalf("strategies %q and %q share a cache key", prev, s.Name())
		}
		seen[k] = s.Name()
	}

	// Parameter spellings of one configuration collapse; a parameterized
	// strategy separates from its base.
	a := KeyFor(rt, core.Options{Strategy: "remat:split=all-loops,no-bias"})
	b := KeyFor(rt, core.Options{Strategy: "remat:no-bias,split=all-loops"})
	if a != b {
		t.Fatal("parameter order changed the cache key")
	}
	if a == KeyFor(rt, core.Options{Strategy: "remat"}) {
		t.Fatal("parameterized strategy shares the base strategy's key")
	}
}
