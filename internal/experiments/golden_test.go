package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/target"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the experiments' golden outputs")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update-golden:
//
//	go test ./internal/experiments -run Golden -update-golden
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestTable1Golden pins Table 1's text for the default configuration
// and for every register count of cmd/experiments -sweep, the sweep
// run as the command runs it: one result cache shared across counts.
func TestTable1Golden(t *testing.T) {
	rows, err := Table1(Table1Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", FormatTable1(rows))

	var b strings.Builder
	cache := driver.NewCache(0)
	for _, n := range []int{6, 8, 10, 12, 14, 16} {
		rows, err := Table1(Table1Config{Standard: target.WithRegs(n), IncludeUnchanged: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "regs=%d\n%s", n, FormatTable1(rows))
	}
	checkGolden(t, "table1_sweep.golden", b.String())
}

// TestStrategyMatrixGolden pins every strategy matrix field except the
// allocation wall time.
func TestStrategyMatrixGolden(t *testing.T) {
	rows, err := StrategyMatrix(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\tcycles=%d spilled=%d remat=%d degraded=%d failed=%d\n",
			r.Strategy, r.Description, r.Cycles, r.Spilled, r.Remat, r.Degraded, r.Failed)
	}
	checkGolden(t, "strategy_matrix.golden", b.String())
}

// TestSplittingGolden pins the §6 study's text, every program compiled
// with its callees under the scheme measured.
func TestSplittingGolden(t *testing.T) {
	rows, err := SplittingStudy(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "splitting.golden", FormatSplitting(rows))
}
