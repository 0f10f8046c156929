package driver

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
)

// testKernels is a small pressure-heavy slice of the suite, enough to
// exercise spilling and rematerialization without allocating all 32
// kernels per test.
var testKernels = []string{"fehl", "decomp", "bilan", "inithx", "sgemm", "tomcatv"}

func testUnits(t *testing.T) []Unit {
	t.Helper()
	var units []Unit
	for _, name := range testKernels {
		k := suite.ByName(name)
		if k == nil {
			t.Fatalf("kernel %s missing", name)
		}
		units = append(units, Unit{Name: name, Routine: k.Routine()})
	}
	return units
}

// fingerprint reduces a Result to its deterministic content: the printed
// allocated code and every non-timing statistic.
type fingerprint struct {
	Code          string
	SpilledRanges int
	RematSpills   int
	FrameWords    int
	Iterations    []iterFP
}

type iterFP struct {
	Spilled   [iloc.NumClasses]int
	Remat     [iloc.NumClasses]int
	Coalesced int
	Splits    int
	Passes    []string
}

func fingerprintOf(res *core.Result) fingerprint {
	fp := fingerprint{
		Code:          iloc.Print(res.Routine),
		SpilledRanges: res.SpilledRanges,
		RematSpills:   res.RematSpills,
		FrameWords:    res.Routine.FrameWords,
	}
	for _, it := range res.Iterations {
		ifp := iterFP{Spilled: it.Spilled, Remat: it.Remat, Coalesced: it.Coalesced, Splits: it.Splits}
		for _, ps := range it.Passes {
			ifp.Passes = append(ifp.Passes, ps.Name)
		}
		fp.Iterations = append(fp.Iterations, ifp)
	}
	return fp
}

// TestBatchOrderAndWorkerSweep checks the engine's central promise:
// results come back in input order with byte-identical content no
// matter how many workers run the batch.
func TestBatchOrderAndWorkerSweep(t *testing.T) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	units := testUnits(t)

	ref := New(Config{Options: opts, Workers: 1}).Run(context.Background(), units)
	if err := ref.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(ref.Results) != len(units) {
		t.Fatalf("results = %d, want %d", len(ref.Results), len(units))
	}
	for i, r := range ref.Results {
		if r.Name != units[i].Name {
			t.Fatalf("result %d is %s, want %s (order lost)", i, r.Name, units[i].Name)
		}
	}

	for _, workers := range []int{2, 4, 8} {
		got := New(Config{Options: opts, Workers: workers}).Run(context.Background(), units)
		if err := got.FirstErr(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range units {
			want := fingerprintOf(ref.Results[i].Result)
			have := fingerprintOf(got.Results[i].Result)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("workers=%d: %s differs from sequential run:\nseq: %+v\npar: %+v",
					workers, units[i].Name, want, have)
			}
		}
		if got.Stats.Workers != workers && got.Stats.Workers != len(units) {
			t.Fatalf("workers=%d: stats report %d workers", workers, got.Stats.Workers)
		}
	}
}

// TestSameRoutineTwiceDeterministic allocates one routine twice —
// sequentially and concurrently — and demands byte-identical iloc.Print
// output and identical Result statistics.
func TestSameRoutineTwiceDeterministic(t *testing.T) {
	k := suite.ByName("tomcatv")
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	units := []Unit{
		{Name: "tomcatv/a", Routine: k.Routine()},
		{Name: "tomcatv/b", Routine: k.Routine()},
	}
	for _, workers := range []int{1, 2} {
		b := New(Config{Options: opts, Workers: workers}).Run(context.Background(), units)
		if err := b.FirstErr(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a := fingerprintOf(b.Results[0].Result)
		bb := fingerprintOf(b.Results[1].Result)
		if a.Code != bb.Code {
			t.Fatalf("workers=%d: same routine allocated differently:\n%s\n---\n%s", workers, a.Code, bb.Code)
		}
		if !reflect.DeepEqual(a, bb) {
			t.Fatalf("workers=%d: result stats differ: %+v vs %+v", workers, a, bb)
		}
	}
}

// TestSharedInputRoutine allocates the same *iloc.Routine pointer from
// many workers at once — core.Allocate documents this as safe (the
// input is only read).
func TestSharedInputRoutine(t *testing.T) {
	rt := suite.ByName("sgemm").Routine()
	units := make([]Unit, 8)
	for i := range units {
		units[i] = Unit{Name: "sgemm", Routine: rt}
	}
	b := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Workers: 8}).Run(context.Background(), units)
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	want := iloc.Print(b.Results[0].Result.Routine)
	for i, r := range b.Results {
		if got := iloc.Print(r.Result.Routine); got != want {
			t.Fatalf("copy %d differs", i)
		}
	}
}

// TestPerUnitOptionsOverride mixes machines within one batch, as the
// experiment drivers do.
func TestPerUnitOptionsOverride(t *testing.T) {
	k := suite.ByName("fehl")
	small := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	huge := core.Options{Machine: target.Huge(), Strategy: "remat"}
	b := New(Config{Options: small}).Run(context.Background(), []Unit{
		{Name: "small", Routine: k.Routine()},
		{Name: "huge", Routine: k.Routine(), Options: &huge},
	})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := b.Results[0].Result.Routine.NextReg[0]; got != 6 {
		t.Fatalf("small machine result has NextReg %d, want 6", got)
	}
	if got := b.Results[1].Result.Routine.NextReg[0]; got != 128 {
		t.Fatalf("huge machine result has NextReg %d, want 128", got)
	}
	if b.Results[1].Result.SpilledRanges != 0 {
		t.Fatal("128-register machine should not spill")
	}
}

// TestUnitErrorsDoNotStopBatch checks error isolation: a broken unit
// reports its own error while the rest of the batch completes.
func TestUnitErrorsDoNotStopBatch(t *testing.T) {
	k := suite.ByName("fehl")
	bad := core.Options{Machine: &target.Machine{Name: "broken", Regs: [iloc.NumClasses]int{1, 1}, MemCycles: 2, OtherCycles: 1}}
	b := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Workers: 2}).Run(context.Background(), []Unit{
		{Name: "ok", Routine: k.Routine()},
		{Name: "bad-machine", Routine: k.Routine(), Options: &bad},
		{Name: "no-routine"},
	})
	if b.Results[0].Err != nil || b.Results[0].Result == nil {
		t.Fatalf("healthy unit failed: %v", b.Results[0].Err)
	}
	if b.Results[1].Err == nil {
		t.Fatal("invalid machine not reported")
	}
	if b.Results[2].Err == nil {
		t.Fatal("missing routine not reported")
	}
	if b.Stats.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", b.Stats.Failed)
	}
	if err := b.FirstErr(); err == nil {
		t.Fatal("FirstErr lost the failure")
	}
}

// TestStatsAccounting checks the batch bookkeeping: every unit is
// attributed to exactly one worker and CPU sums the per-unit walls.
func TestStatsAccounting(t *testing.T) {
	b := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Workers: 3}).Run(context.Background(), testUnits(t))
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats
	if st.Routines != len(testKernels) || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	var units int
	var busy time.Duration
	for _, w := range st.PerWorker {
		units += w.Units
		busy += w.Busy
	}
	if units != st.Routines {
		t.Fatalf("per-worker units sum to %d, want %d", units, st.Routines)
	}
	if busy != st.CPU {
		t.Fatalf("per-worker busy %v != CPU %v", busy, st.CPU)
	}
	if st.Wall <= 0 || st.CPU <= 0 {
		t.Fatalf("timing not recorded: %+v", st)
	}
	if st.Format() == "" {
		t.Fatal("empty stats format")
	}
}

// TestFullSuiteDeterminism is the acceptance check: the driver over the
// complete suite at -j NumCPU produces byte-identical output to -j 1.
func TestFullSuiteDeterminism(t *testing.T) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	var units []Unit
	for _, k := range suite.All() {
		units = append(units, Unit{Name: k.Name, Routine: k.Routine()})
		for i, crt := range k.CalleeRoutines() {
			units = append(units, Unit{Name: fmt.Sprintf("%s/callee%d", k.Name, i), Routine: crt})
		}
	}
	seq := New(Config{Options: opts, Workers: 1}).Run(context.Background(), units)
	par := New(Config{Options: opts, Workers: runtime.NumCPU()}).Run(context.Background(), units)
	if err := seq.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if err := par.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range units {
		if iloc.Print(seq.Results[i].Result.Routine) != iloc.Print(par.Results[i].Result.Routine) {
			t.Fatalf("%s: parallel output differs from sequential", units[i].Name)
		}
	}
}

// TestDuplicateMissesMerge gives eight workers eight copies of one
// routine on a cold cache: one allocates it, and the others wait and
// hit, each with its own snapshot of the one result.
func TestDuplicateMissesMerge(t *testing.T) {
	rt := suite.ByName("sgemm").Routine()
	units := make([]Unit, 8)
	for i := range units {
		units[i] = Unit{Name: fmt.Sprintf("sgemm/%d", i), Routine: rt}
	}
	for run := 0; run < 5; run++ {
		cache := NewCache(0)
		b := New(Config{Options: core.Options{Machine: target.WithRegs(6)}, Workers: 8, Cache: cache}).Run(context.Background(), units)
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if b.Stats.CacheMisses != 1 || b.Stats.CacheHits != len(units)-1 {
			t.Fatalf("run %d: %d misses, %d hits; want 1 allocation and %d hits", run, b.Stats.CacheMisses, b.Stats.CacheHits, len(units)-1)
		}
		want := iloc.Print(b.Results[0].Result.Routine)
		for i, r := range b.Results {
			if got := iloc.Print(r.Result.Routine); got != want {
				t.Fatalf("run %d: copy %d differs", run, i)
			}
			if i > 0 && r.Result.Routine == b.Results[0].Result.Routine {
				t.Fatalf("run %d: copy %d shares copy 0's routine", run, i)
			}
		}
	}
}

// TestDuplicateMissesUncachedLeader: when the first allocation of a key
// is not cached (here a deadline degradation), every duplicate waiting
// on it allocates for itself rather than returning empty.
func TestDuplicateMissesUncachedLeader(t *testing.T) {
	rt := suite.ByName("sgemm").Routine()
	units := make([]Unit, 4)
	for i := range units {
		units[i] = Unit{Name: "sgemm", Routine: rt}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := New(Config{Options: core.Options{Machine: target.WithRegs(6), Strategy: "remat"}, Workers: 4, Cache: NewCache(0)}).Run(ctx, units)
	for i, r := range b.Results {
		if r.Err != nil || r.Result == nil || r.Result.DegradeReason != core.DegradeReasonDeadline || r.CacheHit {
			t.Fatalf("copy %d: %+v", i, r)
		}
	}
}

// TestUnitKeyAndLoad: a unit with a known key is looked up under it and
// loads its routine only on a miss; the result reports the key used.
func TestUnitKeyAndLoad(t *testing.T) {
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	rt := suite.ByName("fehl").Routine()
	key := KeyFor(rt, opts)
	var loads atomic.Int32
	unit := Unit{Name: "fehl", Key: key, Load: func() (*iloc.Routine, error) {
		loads.Add(1)
		return rt, nil
	}}
	eng := New(Config{Options: opts, Cache: NewCache(0)})
	for run, wantHit := range []bool{false, true} {
		r := eng.Run(context.Background(), []Unit{unit}).Results[0]
		if r.Err != nil || r.CacheHit != wantHit || r.Key != key {
			t.Fatalf("run %d: err %v hit %t key %s; want hit %t key %s", run, r.Err, r.CacheHit, r.Key, wantHit, key)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("Load called %d times, want once (the miss)", n)
	}
	if r := eng.Run(context.Background(), []Unit{{Name: "fehl", Routine: rt}}).Results[0]; !r.CacheHit || r.Key != key {
		t.Fatalf("a routine unit reports hit %t key %s; want the hit under %s", r.CacheHit, r.Key, key)
	}
}
