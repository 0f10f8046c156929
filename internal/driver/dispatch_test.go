package driver_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/server"
	"repro/internal/target"
)

const dispatchRoutine = `routine small(r1)
entry:
    getparam r1, 0
    addi r2, r1, 1
    mul r3, r2, r1
    retr r3
`

// dispatchUnits returns n units of one small routine; loads counts the
// units that reached the allocator (the engine loads a routine only to
// allocate or key it, and these units carry no key).
func dispatchUnits(t *testing.T, n int, loads *atomic.Int64) []driver.Unit {
	t.Helper()
	rt, err := iloc.Parse(dispatchRoutine)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]driver.Unit, n)
	for i := range units {
		units[i] = driver.Unit{Name: fmt.Sprintf("u%d", i), Load: func() (*iloc.Routine, error) {
			loads.Add(1)
			return rt, nil
		}}
	}
	return units
}

// TestOnUnitDoneOncePerIndex: for every pool size and batch size,
// including an empty batch and a batch cancelled by its first finished
// unit, OnUnitDone fires exactly once per index, results keep input
// order, and no unit that never reached the allocator reports anything
// but the cancellation.
func TestOnUnitDoneOncePerIndex(t *testing.T) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7} {
			for _, cancelEarly := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/units=%d/cancel=%t", workers, n, cancelEarly)
				t.Run(name, func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var loads atomic.Int64
					units := dispatchUnits(t, n, &loads)
					calls := make([]atomic.Int32, n)
					b := driver.New(driver.Config{Options: opts, Workers: workers, OnUnitDone: func(i int, _ driver.UnitResult) {
						calls[i].Add(1)
						if cancelEarly {
							cancel()
						}
					}}).Run(ctx, units)

					if len(b.Results) != n {
						t.Fatalf("%d results, want %d", len(b.Results), n)
					}
					wantWorkers := max(min(workers, n), 1)
					if b.Stats.Workers != wantWorkers || len(b.Stats.PerWorker) != wantWorkers {
						t.Fatalf("Stats.Workers %d, PerWorker %d; want %d", b.Stats.Workers, len(b.Stats.PerWorker), wantWorkers)
					}
					perWorker := 0
					for _, w := range b.Stats.PerWorker {
						perWorker += w.Units
					}
					if perWorker != n {
						t.Fatalf("PerWorker units sum to %d, want %d", perWorker, n)
					}
					skipped := 0
					for i, r := range b.Results {
						if c := calls[i].Load(); c != 1 {
							t.Fatalf("OnUnitDone(%d) called %d times", i, c)
						}
						if r.Name != units[i].Name {
							t.Fatalf("result %d is %s, want %s", i, r.Name, units[i].Name)
						}
						switch {
						case r.Err == nil && r.Result != nil:
						case errors.Is(r.Err, context.Canceled) && r.Result == nil:
							skipped++
						default:
							t.Fatalf("unit %d: err %v, result %v", i, r.Err, r.Result != nil)
						}
					}
					if !cancelEarly && skipped != 0 {
						t.Fatalf("%d units cancelled in an uncancelled batch", skipped)
					}
					if cancelEarly && n > 0 && skipped == n {
						t.Fatal("no unit finished before the cancellation")
					}
					// At most one unit per worker can have been in flight
					// when the first result cancelled the batch; every
					// other cancelled unit never reached the allocator.
					if l := int(loads.Load()); l > n || (cancelEarly && l > n-skipped+workers-1) {
						t.Fatalf("%d units reached the allocator; %d of %d were cancelled", l, skipped, n)
					}
				})
			}
		}
	}
}

// goroutineID parses the running goroutine's ID from its stack header,
// "goroutine 123 [running]:".
func goroutineID() int64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseInt(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestCallerIsWorkerZero: the goroutine that calls Run is worker 0, so
// a one-unit batch, or any batch with Workers 1, runs entirely on it.
func TestCallerIsWorkerZero(t *testing.T) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	caller := goroutineID()
	for _, tc := range []struct{ workers, units int }{{0, 1}, {4, 1}, {1, 5}} {
		var (
			mu  sync.Mutex
			ids = map[int64]bool{}
		)
		var loads atomic.Int64
		b := driver.New(driver.Config{Options: opts, Workers: tc.workers, OnUnitDone: func(int, driver.UnitResult) {
			mu.Lock()
			ids[goroutineID()] = true
			mu.Unlock()
		}}).Run(context.Background(), dispatchUnits(t, tc.units, &loads))
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || !ids[caller] {
			t.Fatalf("workers=%d units=%d: units ran on goroutines %v, want only the caller's %d", tc.workers, tc.units, ids, caller)
		}
		for i, r := range b.Results {
			if r.Worker != 0 {
				t.Fatalf("workers=%d units=%d: unit %d on worker %d", tc.workers, tc.units, i, r.Worker)
			}
		}
	}
}

// BenchmarkEngineRun times the dispatch layer alone: batches of 1, 3
// and 256 units that all hit a warm cache under known keys, with the
// default pool size. ns/unit is the engine's cost per unit: claim,
// lookup, snapshot, bookkeeping.
func BenchmarkEngineRun(b *testing.B) {
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	progs, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := server.DefaultOptions()
	rts := corpus.Routines(progs)[:256]
	all := make([]driver.Unit, len(rts))
	for i, rt := range rts {
		all[i] = driver.Unit{Name: rt.Name, Routine: rt, Key: driver.KeyFor(rt, opts)}
	}
	eng := driver.New(driver.Config{Options: opts, Cache: driver.NewCache(0)})
	if err := eng.Run(context.Background(), all).FirstErr(); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 3, 256} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			units := all[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := eng.Run(context.Background(), units); got.Stats.CacheHits != n {
					b.Fatalf("%d hits, want %d", got.Stats.CacheHits, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/unit")
		})
	}
}
