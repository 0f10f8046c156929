package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/target"
)

func TestTable1ShapeHolds(t *testing.T) {
	rows, err := Table1(Table1Config{IncludeUnchanged: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	improved, regressed := 0, 0
	for _, r := range rows {
		if r.Optimistic < 0 || r.Remat < 0 {
			t.Errorf("%s: negative spill cost (opt %d, remat %d) — huge baseline not minimal?",
				r.Routine, r.Optimistic, r.Remat)
		}
		// Count like the paper: rounded-to-zero rows are insignificant.
		if r.PctTotal >= 0.5 {
			improved++
		}
		if r.PctTotal <= -0.5 {
			regressed++
		}
	}
	t.Logf("improved %d, regressed %d, of %d kernels", improved, regressed, len(rows))
	// The paper's claim: improvements dominate (28 wins vs 2 losses over
	// 70 routines). On the synthetic suite, wins must clearly outnumber
	// losses and exist at all.
	if improved < 3 {
		t.Fatalf("only %d improvements — Table 1's shape is lost", improved)
	}
	if regressed >= improved {
		t.Fatalf("regressions (%d) should not outnumber improvements (%d)", regressed, improved)
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Optimistic") || !strings.Contains(text, "total") {
		t.Fatal("formatting broken")
	}
}

func TestTable1PressureSweep(t *testing.T) {
	// Across register counts the aggregate must never invert (remat can
	// only tie or win in total, even if single rows regress).
	for _, n := range []int{8, 10, 12, 16} {
		cfg := Table1Config{Standard: target.WithRegs(n), IncludeUnchanged: true}
		rows, err := Table1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var opt, rem int64
		for _, r := range rows {
			opt += r.Optimistic
			rem += r.Remat
		}
		t.Logf("regs=%d: total spill cycles optimistic=%d remat=%d", n, opt, rem)
		if rem > opt {
			t.Fatalf("regs=%d: remat aggregate worse (%d > %d)", n, rem, opt)
		}
	}
}

func TestTable2Runs(t *testing.T) {
	cols, err := Table2(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("columns = %d", len(cols))
	}
	for _, c := range cols {
		if c.OldTotal <= 0 || c.NewTotal <= 0 {
			t.Fatalf("%s: zero totals", c.Routine)
		}
		if len(c.Cells) < 5 {
			t.Fatalf("%s: too few phase cells (%d)", c.Routine, len(c.Cells))
		}
		if c.Cells[0].Phase != "cfa" {
			t.Fatalf("%s: first row should be cfa", c.Routine)
		}
	}
	text := FormatTable2(cols)
	for _, w := range []string{"repvid", "tomcatv", "twldrv", "renum", "build", "total"} {
		if !strings.Contains(text, w) {
			t.Fatalf("Table 2 text missing %q:\n%s", w, text)
		}
	}
}

// TestTable2RowsCoverEveryPass: a pipeline pass whose time maps to no
// Table 2 row would silently vanish from the table and its totals.
func TestTable2RowsCoverEveryPass(t *testing.T) {
	for _, name := range core.PassNames() {
		if phase := core.PassPhase(name); !slices.Contains(table2Rows, phase) {
			t.Errorf("pass %s maps to Table 2 row %q, want one of %v", name, phase, table2Rows)
		}
	}
}

func TestFigure1(t *testing.T) {
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.RematCycles >= r.ChaitinCycles {
		t.Fatalf("figure 1 inverted: remat %d cycles vs chaitin %d", r.RematCycles, r.ChaitinCycles)
	}
	if r.RematLdaCount <= r.ChaitinLdaCnt {
		t.Fatal("remat allocation should issue extra lda (rematerializing p)")
	}
	if r.RematLoads >= r.ChaitinLoads {
		t.Fatal("remat allocation should need fewer reloads")
	}
	if !strings.Contains(r.Format(), "Rematerialization versus Spilling") {
		t.Fatal("format broken")
	}
}

func TestFigure2(t *testing.T) {
	s, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"renumber", "simplify", "iteration 1", "allocation complete"} {
		if !strings.Contains(s, w) {
			t.Fatalf("figure 2 trace missing %q:\n%s", w, s)
		}
	}
	// Under that much pressure at least two iterations must happen.
	if !strings.Contains(s, "iteration 2") {
		t.Fatalf("expected a spill iteration:\n%s", s)
	}
}

func TestFigure3(t *testing.T) {
	r, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SSA, "phi") {
		t.Fatal("SSA stage shows no φ")
	}
	if len(r.Tags) != 3 {
		t.Fatalf("p should have exactly 3 values (lda, addi, φ), got %v", r.Tags)
	}
	var inst, bottom int
	for _, tag := range r.Tags {
		if strings.Contains(tag, "inst(") {
			inst++
		}
		if strings.Contains(tag, "⊥") {
			bottom++
		}
	}
	if inst != 1 || bottom != 2 {
		t.Fatalf("tags should be 1 inst + 2 ⊥, got %v", r.Tags)
	}
	if r.Splits == 0 {
		t.Fatal("minimal column needs at least one split")
	}
	if !strings.Contains(r.Format(), "Minimal") {
		t.Fatal("format broken")
	}
}

func TestFigure4(t *testing.T) {
	s, err := FormatFigure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"floadao f14, r14, r9",
		"f14 = *((double *) (r14 + r9)); l++;",
		"f14 = fabs(f14);",
		"r14 = r14 + (8); a++;",
	} {
		if !strings.Contains(s, w) {
			t.Fatalf("figure 4 missing %q", w)
		}
	}
}

func TestSplittingStudy(t *testing.T) {
	rows, err := SplittingStudy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's finding: each scheme has successes and failures. Check
	// that at least one scheme improves at least one kernel and degrades
	// another relative to the plain rematerializing allocator.
	improve, degrade := false, false
	for _, r := range rows {
		for _, c := range r.Cycles {
			if c < r.Baseline {
				improve = true
			}
			if c > r.Baseline {
				degrade = true
			}
		}
	}
	if !improve || !degrade {
		t.Fatalf("expected mixed results (improve=%v degrade=%v):\n%s",
			improve, degrade, FormatSplitting(rows))
	}
	if !strings.Contains(FormatSplitting(rows), "all-loops") {
		t.Fatal("format broken")
	}
}
