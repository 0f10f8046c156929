package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/iloc"
	"repro/internal/target"
)

// TestRegressionCorpus replays every routine of testdata/regress: each
// strategy allocates it on the standard machine and on four registers
// with the verifier on and no fallback, and every allocation returns
// what the input returns and leaves the same data, at FuzzAllocate's
// argument values. A routine in a file named fault-*.iloc reaches past
// the object it addresses, so its input must fault at every argument
// value; its allocations are still made and verified, but owe nothing.
func TestRegressionCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/regress/*.iloc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no regression routines: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			in, err := iloc.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			faults := strings.HasPrefix(filepath.Base(p), "fault-")
			for i := range fuzzInts {
				_, err := runAt(in, fuzzArgs(in, i))
				if faults && err == nil {
					t.Fatalf("the input runs at arguments %v", fuzzArgs(in, i))
				}
				if !faults && err != nil {
					t.Fatalf("the input does not run: %v", err)
				}
			}
			for _, spec := range StrategyNames() {
				for _, m := range []*target.Machine{target.Standard(), target.WithRegs(4)} {
					res, err := Allocate(context.Background(), in, Options{Machine: m, Strategy: spec, Verify: true, DisableDegradation: true})
					if err != nil {
						t.Fatalf("%s on %s: %v", spec, m.Name, err)
					}
					checkSameRuns(t, spec+" on "+m.Name, in, res.Routine)
				}
			}
		})
	}
}

// A frame is sized by the largest offset the code names, and the
// interpreter refuses frames past interp.MaxWords instead of making
// them: allocating and verifying this 90-byte routine once took
// 156 MiB for its 80 MB frame, and now takes well under 256 KiB.
func TestFarFrameOffsetAllocatesLittle(t *testing.T) {
	rt := iloc.MustParse("routine far()\nentry:\n ldi r2, 5\n storeai r2, fp, 80000000\n loadai r1, fp, 80000000\n retr r1\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Allocate(context.Background(), rt, Options{Machine: target.Standard(), Strategy: "remat", Verify: true, DisableDegradation: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Allocate with Verify allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Errorf("Allocate with Verify allocated %d KiB", alloc>>10)
	}
}
