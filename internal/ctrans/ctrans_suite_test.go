package ctrans_test

import (
	"context"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrans"
	"repro/internal/suite"
	"repro/internal/target"
)

// Every suite kernel translates to C, before and after allocation, and
// the output contains the counter instrumentation.
func TestTranslateWholeSuite(t *testing.T) {
	for _, k := range suite.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			c, err := ctrans.Translate(k.Routine())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(c, "long l, s, c, i, a;") {
				t.Fatal("instrumentation missing")
			}
			if !strings.Contains(c, k.Name+"(") {
				t.Fatal("function name missing")
			}

			res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: target.WithRegs(6), Strategy: "remat"})
			if err != nil {
				t.Fatal(err)
			}
			ca, err := ctrans.Translate(res.Routine)
			if err != nil {
				t.Fatalf("allocated translation: %v", err)
			}
			// Allocated code on a 6-register machine declares at most 5
			// integer registers (r1..r5).
			if strings.Contains(ca, "register long r6;") {
				t.Fatal("allocated code declares registers beyond the machine")
			}
		})
	}
}

// If a C compiler is available, the translation must be syntactically
// valid C (the paper compiled these translations into complete
// programs).
func TestTranslationCompilesWithGCC(t *testing.T) {
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		t.Skip("no gcc on this host")
	}
	for _, k := range suite.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, err := core.Allocate(context.Background(), k.Routine(), core.Options{Machine: target.Standard(), Strategy: "remat"})
			if err != nil {
				t.Fatal(err)
			}
			c, err := ctrans.Translate(res.Routine)
			if err != nil {
				t.Fatal(err)
			}
			// Unused registers and labels are expected in generated code;
			args := []string{"-fsyntax-only", "-Wall", "-Werror",
				"-Wno-unused-variable", "-Wno-unused-label", "-Wno-unused-but-set-variable",
				"-x", "c", "-"}
			cmd := exec.Command(gcc, args...)
			cmd.Stdin = strings.NewReader(c)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("gcc rejected the translation: %v\n%s\n--- C ---\n%s", err, out, c)
			}
		})
	}
}
