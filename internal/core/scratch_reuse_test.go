package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
)

// Allocate pools its per-class scratch across calls. Allocating the
// golden corpora with the suite's largest kernel interleaved, first one
// after another on one goroutine and then through the driver with four
// workers, must give each routine exactly the output it gets on a
// scratch no other call used: no pass may read a table it did not
// reset, and no scratch may be shared between concurrent calls.
func TestPooledScratchMatchesNew(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale reuse test skipped in -short mode")
	}
	names, rts, opts := core.ReuseRoutines(t)
	want := make([]string, len(rts))
	for i, rt := range rts {
		res, err := core.AllocateOnNewScratch(rt, opts[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = core.ResultDigest(res)
	}
	for i, rt := range rts {
		res, err := core.Allocate(context.Background(), rt, opts[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if got := core.ResultDigest(res); got != want[i] {
			t.Fatalf("%s (item %d): one goroutine's digest %s, on a new scratch %s", names[i], i, got, want[i])
		}
	}
	units := make([]driver.Unit, len(rts))
	for i, rt := range rts {
		units[i] = driver.Unit{Name: names[i], Routine: rt, Options: &opts[i]}
	}
	batch := driver.New(driver.Config{Workers: 4}).Run(context.Background(), units)
	if err := batch.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if got := core.ResultDigest(r.Result); got != want[i] {
			t.Errorf("%s (item %d): four workers' digest %s, on a new scratch %s", names[i], i, got, want[i])
		}
	}
}
