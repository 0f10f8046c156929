package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iloc"
	"repro/internal/target"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden allocation snapshots")

// Golden snapshots pin the exact allocator output on the Figure 1
// example, so any unintended behavioural drift (heuristic order, split
// placement, slot assignment) is caught immediately. Allocation is
// deterministic, so these are stable. Regenerate deliberately with
//
//	go test ./internal/core -run TestGolden -update-golden
func TestGoldenFig1Allocations(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"fig1_remat_r3", Options{Machine: target.WithRegs(3), Strategy: "remat"}},
		{"fig1_chaitin_r3", Options{Machine: target.WithRegs(3), Strategy: "chaitin"}},
		{"fig1_remat_r16", Options{Machine: target.Standard(), Strategy: "remat"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Allocate(context.Background(), iloc.MustParse(fig1Src), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := iloc.Print(res.Routine)
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("allocation drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
