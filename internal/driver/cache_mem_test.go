package driver_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/machines"
)

// eachServeColdResult allocates the first n routines of the serve-cold
// corpus family (count=2000,seed=21) under rallocd's options in that
// workload (x86-64, remat, verified), one unit at a time, handing each
// key and result to f. Nothing outlives the call but what f keeps.
func eachServeColdResult(tb testing.TB, n int, f func(driver.Key, *core.Result)) {
	spec, err := corpus.ParseSpec("count=2000,seed=21")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machines.Lookup("x86-64")
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.Options{Machine: m, Strategy: "remat", Verify: true}
	for i := 0; n > 0 && i < spec.Count; i++ {
		for _, rt := range corpus.GenerateUnit(spec, i).Routines {
			if n == 0 {
				break
			}
			res, err := core.Allocate(context.Background(), rt, opts)
			if err != nil {
				tb.Fatal(err)
			}
			f(driver.KeyFor(rt, opts), res)
			n--
		}
	}
	if n > 0 {
		tb.Fatalf("corpus ran out %d routines short", n)
	}
}

// heapInUse returns the live heap after two collections, which also
// empty the sync.Pools.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheRetainedBytes: a full default-size L1 of serve-cold results
// keeps at most 2,048 heap bytes per entry, keys and bookkeeping
// included. A cloned routine per entry kept about 7,700.
func TestCacheRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 4,096 corpus routines")
	}
	const entries, budget = 4096, 2048
	before := heapInUse()
	cache := driver.NewCache(entries)
	eachServeColdResult(t, entries, func(k driver.Key, res *core.Result) { cache.Put(k, res) })
	after := heapInUse()
	st := cache.Stats()
	runtime.KeepAlive(cache)
	if st.Entries != entries {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, entries)
	}
	perEntry := (int64(after) - int64(before)) / entries
	t.Logf("%d entries: %d heap bytes per entry, %d of them snapshot", entries, perEntry, st.Bytes/entries)
	if perEntry > budget {
		t.Fatalf("the cache retains %d bytes per entry, want at most %d", perEntry, budget)
	}
	if st.Bytes <= 0 || st.Bytes/entries > perEntry {
		t.Fatalf("CacheStats.Bytes = %d does not fit the %d bytes per entry retained", st.Bytes, perEntry)
	}
}

var resultSink *core.Result

// BenchmarkCacheGet times one L1 hit of a serve-cold result: the
// lookup and a fresh, caller-owned copy of the result. As in a daemon,
// the cache holds the only copy of each result.
func BenchmarkCacheGet(b *testing.B) {
	cache := driver.NewCache(0)
	var keys []driver.Key
	eachServeColdResult(b, 256, func(k driver.Key, res *core.Result) {
		keys = append(keys, k)
		cache.Put(k, res)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := cache.Get(keys[i%len(keys)])
		if !ok {
			b.Fatal("miss")
		}
		resultSink = res
	}
}

// BenchmarkCachePut times storing one serve-cold result into a full L1,
// each Put inserting one entry and evicting another as a cold daemon's
// do.
func BenchmarkCachePut(b *testing.B) {
	var keys []driver.Key
	var results []*core.Result
	eachServeColdResult(b, 256, func(k driver.Key, res *core.Result) {
		keys = append(keys, k)
		results = append(results, res)
	})
	cache := driver.NewCache(len(keys) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		cache.Put(keys[j], results[j])
	}
}
