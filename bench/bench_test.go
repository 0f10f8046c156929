package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/suite"
	"repro/internal/target"
)

// root is the repository root as seen from the package directory.
const root = ".."

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	samples := []float64{math.Inf(1), math.Inf(1)}
	for i := 1; i <= 98; i++ {
		samples = append(samples, float64(i))
	}
	s := summarize(samples)
	if s.N != 100 {
		t.Errorf("N = %d, want 100", s.N)
	}
	if s.P50 != 50 {
		t.Errorf("p50 = %v, want 50", s.P50)
	}
	if !math.IsInf(s.P99, 1) {
		t.Errorf("p99 = %v, want +Inf: two of 100 requests failed", s.P99)
	}
	if finite(s.P99) != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want the largest float", finite(s.P99))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestFastEstimators: an operation's fastest repeat ignores a slowed or
// failed repeat, and the fast-decile median reads the fast windows.
func TestFastEstimators(t *testing.T) {
	inf := math.Inf(1)
	got := fastestRepeats([]float64{5, 1, 3, 2, inf, 9, 7, 4, 8}, 3)
	if want := []float64{2, 1, 3}; !slices.Equal(got, want) {
		t.Errorf("fastestRepeats = %v, want %v", got, want)
	}
	var lat []float64
	for w := 0; w < 10; w++ { // window w's median is w+1; window 9 failed
		for i := 0; i < 5; i++ {
			lat = append(lat, float64(w+1))
		}
	}
	for i := 45; i < 50; i++ {
		lat[i] = inf
	}
	if got := fastDecileMedian(lat, 5); got != 1 {
		t.Errorf("fastDecileMedian = %v, want 1", got)
	}
}

// TestOpenLoopTimesFromDueTime stalls one request for 50 ms on a single
// connection: the requests due behind it wait, and that wait must show
// in their latency and in how late the generator ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stalled = 10
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch i, _ := strconv.Atoi(string(body)); i {
		case stalled:
			time.Sleep(50 * time.Millisecond)
		case 150:
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()

	l := openLoop{
		url: srv.URL, rate: 1000, duration: 200 * time.Millisecond, conns: 1,
		body: func(i int) []byte { return []byte(strconv.Itoa(i)) },
		check: func(_, status int, _ []byte) error {
			if status != http.StatusOK {
				return &http.ProtocolError{ErrorString: "status " + strconv.Itoa(status)}
			}
			return nil
		},
	}
	res := l.run(context.Background())
	if len(res.latency) != 200 {
		t.Fatalf("%d requests timed, want 200", len(res.latency))
	}
	if res.latency[stalled] < 50 {
		t.Errorf("stalled request took %.2f ms, want >= 50", res.latency[stalled])
	}
	if res.latency[stalled+1] < 45 {
		t.Errorf("request due 1 ms after the stall took %.2f ms from its due time, want >= 45", res.latency[stalled+1])
	}
	if late := summarize(res.late).P99; late < 40 {
		t.Errorf("loadgen late p99 = %.2f ms, want >= 40: the stall delayed later sends", late)
	}
	if res.failed != 1 || !math.IsInf(res.latency[150], 1) {
		t.Errorf("failed = %d, latency[150] = %v; want the 429 counted as one failure at +Inf", res.failed, res.latency[150])
	}
}

// TestMetricsDeclared checks BENCHMARK.json against the harness: valid
// unique names with units, the same workloads, and emit refusing a
// metric that is undeclared or missing, which is what guarantees every
// printed metric is declared and every declared one printed.
func TestMetricsDeclared(t *testing.T) {
	decls, err := loadDecls(root)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command   []string
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness workloads %v", names, workloadNames())
	}
	if decls.RunSeconds < 1 || len(decls.EndToEnd) == 0 || len(decls.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json: run_seconds %d, %d end-to-end and %d per-layer metrics",
			decls.RunSeconds, len(decls.EndToEnd), len(decls.PerLayer))
	}
	for _, d := range decls.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	values := map[string]float64{}
	for _, d := range decls.EndToEnd {
		values[d.Name] = 1
	}
	if _, err := emit(decls.EndToEnd, values); err != nil {
		t.Fatal(err)
	}
	values["undeclared_ms"] = 1
	if _, err := emit(decls.EndToEnd, values); err == nil {
		t.Error("emit printed a metric BENCHMARK.json does not declare")
	}
	delete(values, "undeclared_ms")
	delete(values, decls.EndToEnd[0].Name)
	if _, err := emit(decls.EndToEnd, values); err == nil {
		t.Error("emit left out a declared metric")
	}
}

// TestCorruptAllocationFails hands the compile checker an allocation
// with an out-of-bank register: every allocation of that routine must
// fail and the run's exit code must be nonzero.
func TestCorruptAllocationFails(t *testing.T) {
	ctx := context.Background()
	m, err := machines.Lookup("x86-64")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Machine: m, Strategy: "remat"}
	c, err := setupCompile(ctx, corpus.Spec{Count: 4, Seed: 5}, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad, _ := c.reference(m, 2); bad[0] != nil {
		t.Fatalf("clean reference rejected: %v", bad[0])
	}
	corrupt(t, c.ref.Results[0].Result.Routine)
	text, bad, _ := c.reference(m, 2)
	if bad[0] == nil {
		t.Fatal("checker accepted an allocation using register 99")
	}
	o := newOutcome()
	c.closedLoop(ctx, opts, 2, time.Millisecond, text, bad, o)
	if o.failed == 0 {
		t.Fatal("closed loop counted no failures against a corrupted reference")
	}
	if code := o.result(nil).exitCode(); code == 0 {
		t.Error("exit code 0 after a correctness failure")
	}
	if code := newOutcome().result(nil).exitCode(); code != 0 {
		t.Errorf("exit code %d for a clean run", code)
	}
}

// corrupt rewrites the first integer register an instruction defines to
// a color no machine in the zoo has.
func corrupt(t *testing.T, rt *iloc.Routine) {
	t.Helper()
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if in.Dst.Valid() && in.Dst.Class == iloc.ClassInt && in.Dst.N != 0 {
				in.Dst.N = 99
				return
			}
		}
	}
	t.Fatal("no integer definition to corrupt")
}

func TestDecodeOKRejects(t *testing.T) {
	ok := `{"results":[{"name":"a","code":"routine a()\n","verified":true}]}`
	if _, err := decodeOK(200, []byte(ok)); err != nil {
		t.Fatalf("verified 200 rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   string
	}{
		"shed":       {429, `{"error":"server saturated"}`},
		"unverified": {200, `{"results":[{"name":"a","code":"routine a()\n","verified":false}]}`},
		"unit error": {200, `{"results":[{"name":"a","error":"canceled","verified":true}]}`},
	} {
		if _, err := decodeOK(c.status, []byte(c.body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpillCyclesMatchesTable1 ties the harness's quality measure to the
// reproduction: applied to kernel fehl on Table 1's default machine, it
// must equal Table 1's Remat column.
func TestSpillCyclesMatchesTable1(t *testing.T) {
	rows, err := experiments.Table1(experiments.Table1Config{IncludeUnchanged: true})
	if err != nil {
		t.Fatal(err)
	}
	var want *experiments.Table1Row
	for i := range rows {
		if rows[i].Routine == "fehl" {
			want = &rows[i]
		}
	}
	if want == nil {
		t.Fatal("Table 1 has no fehl row")
	}
	k := suite.ByName("fehl")
	prog := append([]*iloc.Routine{k.Routine()}, k.CalleeRoutines()...)
	m := target.WithRegs(6)
	ctx := context.Background()
	alloc, err := allocateProgram(ctx, prog, core.Options{Machine: m, Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	huge, err := allocateProgram(ctx, prog, core.Options{Machine: target.Huge(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := spillCycles(alloc, huge, m, k.ExecuteWith)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Remat {
		t.Errorf("spill cycles for fehl = %d, Table 1 Remat = %d", got, want.Remat)
	}
}

// TestBenchSmoke runs every workload for two seconds, untraced and
// traced: every declared metric must print and nothing may fail.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	decls, err := loadDecls(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w, env{
				root: root, seconds: 2 * time.Second, traced: traced, workers: 2,
				out: t.TempDir(), log: io.Discard,
			}, decls)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(res.Metrics) != len(decls.decls(traced)) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.name, traced, len(res.Metrics), len(decls.decls(traced)))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if !traced {
				for _, d := range decls.EndToEnd {
					if v := res.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, v)
					}
				}
			}
		}
	}
}
