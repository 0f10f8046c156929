package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iloc"
	"repro/internal/target"
)

// TestRegressionCorpus replays every routine of testdata/regress: each
// strategy allocates it on the standard machine and on four registers
// with the verifier on and no fallback, and every allocation returns
// what the input returns and leaves the same data, at FuzzAllocate's
// argument values.
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
			if _, err := runAt(in, fuzzArgs(in, 0)); err != nil {
				t.Fatalf("the input does not run: %v", err)
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
