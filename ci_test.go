package regalloc

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIMirrorsMake: the Makefile's ci target and
// .github/workflows/ci.yml each say to keep the two in sync. The ci
// target's prerequisites must be, in order, the targets the workflow's
// `run: make …` steps name.
func TestCIMirrorsMake(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			targets = strings.Fields(rest)
		}
	}
	if len(targets) == 0 {
		t.Fatal("Makefile has no ci target with prerequisites")
	}

	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, m := range regexp.MustCompile(`(?m)^\s*run:\s*make\s+(.*?)\s*$`).FindAllStringSubmatch(string(wf), -1) {
		steps = append(steps, strings.Fields(m[1])...)
	}
	if !slices.Equal(targets, steps) {
		t.Errorf("make ci runs\n  %v\nci.yml runs\n  %v", targets, steps)
	}
}
