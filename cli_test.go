package regalloc_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildCmd compiles one of the cmd/ binaries once per test run.
var buildCmd = func() func(t *testing.T, name string) string {
	var mu sync.Mutex
	built := map[string]string{}
	return func(t *testing.T, name string) string {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if p, ok := built[name]; ok {
			return p
		}
		dir, err := os.MkdirTemp("", "repro-cli")
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		built[name] = bin
		return bin
	}
}()

func runCmd(t *testing.T, bin string, stdin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var outB, errB strings.Builder
	cmd.Stdout, cmd.Stderr = &outB, &errB
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", bin, args, err, errB.String())
	}
	return outB.String(), errB.String()
}

// runCmdFail runs the binary expecting a nonzero exit; it returns
// stderr.
func runCmdFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var outB, errB strings.Builder
	cmd.Stdout, cmd.Stderr = &outB, &errB
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %v: expected failure, got success\nstdout: %s", bin, args, outB.String())
	}
	return errB.String()
}

func TestCLIRallocAllocatesFile(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	out, stderr := runCmd(t, bin, "", "-strategy", "remat", "-regs", "4", "-stats", "testdata/sumabs.iloc")
	if !strings.Contains(out, "routine sumabs") {
		t.Fatalf("no routine in output:\n%s", out)
	}
	if !strings.Contains(stderr, "strategy=remat") || !strings.Contains(stderr, "phases:") {
		t.Fatalf("stats missing:\n%s", stderr)
	}
	// The allocated code must stay within 4 registers per class.
	for _, bad := range []string{"r4,", " r5", " f4", " f5"} {
		if strings.Contains(out, bad+",") {
			t.Fatalf("register beyond machine in output:\n%s", out)
		}
	}
}

// -stats prints the instrumented pipeline's per-pass table and must not
// perturb the allocation itself: stdout is identical with and without it,
// on the standard machine and the tiny 3-register one.
func TestCLIRallocPerPassStats(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	for _, regs := range []string{"16", "3"} {
		plain, _ := runCmd(t, bin, "", "-regs", regs, "testdata/sumabs.iloc")
		withStats, stderr := runCmd(t, bin, "", "-regs", regs, "-stats", "testdata/sumabs.iloc")
		if plain != withStats {
			t.Fatalf("regs=%s: -stats changed the allocation:\n--- plain ---\n%s--- stats ---\n%s", regs, plain, withStats)
		}
		for _, pass := range []string{"iter", "pass", "cfa", "renumber", "build", "simplify", "select"} {
			if !strings.Contains(stderr, pass) {
				t.Fatalf("regs=%s: per-pass stats missing %q:\n%s", regs, pass, stderr)
			}
		}
		if !strings.Contains(stderr, "iteration(s)") {
			t.Fatalf("regs=%s: summary line missing:\n%s", regs, stderr)
		}
	}
}

func TestCLIRallocEmitsC(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	out, _ := runCmd(t, bin, "", "-c", "testdata/sumabs.iloc")
	for _, w := range []string{"#include <math.h>", "double sumabs(long p0)", "l++;"} {
		if !strings.Contains(out, w) {
			t.Fatalf("C output missing %q:\n%s", w, out)
		}
	}
}

func TestCLIRallocSplitSchemes(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	for _, s := range []string{"none", "all-loops", "outer-loops", "inactive-loops", "all-phis"} {
		out, _ := runCmd(t, bin, "", "-strategy", "remat:split="+s, "-regs", "6", "testdata/fig1.iloc")
		if !strings.Contains(out, "routine fig1") {
			t.Fatalf("scheme %s: no output", s)
		}
	}
}

// Several .iloc files form a module: allocated concurrently by the
// batch driver, printed in input order. Before the driver existed,
// every positional argument after the first was silently ignored.
func TestCLIRallocMultiFile(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	for _, jobs := range []string{"1", "4"} {
		out, _ := runCmd(t, bin, "", "-j", jobs, "-regs", "6",
			"testdata/sumabs.iloc", "testdata/fig1.iloc")
		sum := strings.Index(out, "routine sumabs")
		fig := strings.Index(out, "routine fig1")
		if sum < 0 || fig < 0 {
			t.Fatalf("-j %s: missing a routine in output:\n%s", jobs, out)
		}
		if sum > fig {
			t.Fatalf("-j %s: output not in input order:\n%s", jobs, out)
		}
	}
	// Output must be byte-identical whatever the parallelism.
	seq, _ := runCmd(t, bin, "", "-j", "1", "-regs", "6", "testdata/sumabs.iloc", "testdata/fig1.iloc")
	par, _ := runCmd(t, bin, "", "-j", "4", "-regs", "6", "testdata/sumabs.iloc", "testdata/fig1.iloc")
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- -j1 ---\n%s--- -j4 ---\n%s", seq, par)
	}
}

// Duplicate inputs hit the content-addressed cache; -stats reports it.
// One worker: two workers can allocate both copies at once, and the
// cache does not merge in-flight misses.
func TestCLIRallocCache(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	out, stderr := runCmd(t, bin, "", "-j", "1", "-cache", "-stats", "-regs", "6",
		"testdata/sumabs.iloc", "testdata/sumabs.iloc")
	if strings.Count(out, "routine sumabs") != 2 {
		t.Fatalf("both copies should be printed:\n%s", out)
	}
	if !strings.Contains(stderr, "cache:") || !strings.Contains(stderr, "1 hits") {
		t.Fatalf("cache stats missing a hit:\n%s", stderr)
	}
}

// A bad extra argument must be an error, not silently dropped (the old
// CLI read only flag.Arg(0)).
func TestCLIRallocBadExtraArg(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	stderr := runCmdFail(t, bin, "testdata/sumabs.iloc", "no-such-file.iloc")
	if !strings.Contains(stderr, "no-such-file.iloc") {
		t.Fatalf("error does not name the bad argument:\n%s", stderr)
	}
}

func TestCLIRallocListStrategies(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	out, _ := runCmd(t, bin, "", "-list-strategies")
	for _, name := range []string{"chaitin", "remat", "spill-everywhere", "ssa-spill"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list-strategies lacks %q:\n%s", name, out)
		}
	}
}

func TestCLIRallocBadStrategyListsValid(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	stderr := runCmdFail(t, bin, "-strategy", "linear-scan", "testdata/sumabs.iloc")
	if !strings.Contains(stderr, `"linear-scan"`) {
		t.Fatalf("error does not name the bad strategy:\n%s", stderr)
	}
	for _, name := range []string{"chaitin", "remat", "spill-everywhere", "ssa-spill"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("error does not list valid strategy %q:\n%s", name, stderr)
		}
	}
}

// The default invocation and its explicit-strategy spellings are
// byte-identical on the testdata kernels: the strategy layer is a
// refactor of selection, not of output.
func TestCLIRallocStrategyBackCompat(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	for _, file := range []string{"testdata/sumabs.iloc", "testdata/fig1.iloc"} {
		def, _ := runCmd(t, bin, "", file)
		byStrategy, _ := runCmd(t, bin, "", "-strategy", "remat", file)
		if def != byStrategy {
			t.Fatalf("%s: -strategy remat differs from default:\n--- default\n%s--- strategy\n%s", file, def, byStrategy)
		}
	}
}

// Every registered strategy allocates the testdata kernels under the
// verifier with degradation disabled — the CLI leg of the all-strategy
// acceptance sweep.
func TestCLIRallocEveryStrategyVerifies(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	names, _ := runCmd(t, bin, "", "-list-strategies")
	for _, line := range strings.Split(strings.TrimSpace(names), "\n") {
		name := strings.Fields(line)[0]
		out, _ := runCmd(t, bin, "", "-strategy", name, "-strict", "testdata/sumabs.iloc")
		if !strings.Contains(out, "routine sumabs") {
			t.Errorf("strategy %s: no routine in output:\n%s", name, out)
		}
	}
}

func TestCLIIlocrunFile(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	out, _ := runCmd(t, bin, "", "-args", "8", "-counts", "testdata/sumabs.iloc")
	if !strings.Contains(out, "float=18.5") {
		t.Fatalf("wrong result:\n%s", out)
	}
	if !strings.Contains(out, "fabs") {
		t.Fatalf("counts missing:\n%s", out)
	}
}

func TestCLIIlocrunStdinAndAllocate(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	src, err := os.ReadFile("testdata/sumabs.iloc")
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := runCmd(t, bin, string(src), "-args", "8", "-")
	alloc, _ := runCmd(t, bin, string(src), "-args", "8", "-strategy", "remat", "-regs", "4", "-")
	if !strings.Contains(plain, "float=18.5") || !strings.Contains(alloc, "float=18.5") {
		t.Fatalf("allocation changed the answer:\n%s\n%s", plain, alloc)
	}
}

func TestCLIIlocrunKernel(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	out, _ := runCmd(t, bin, "", "-kernel", "sgemm", "-strategy", "chaitin", "-regs", "8")
	if !strings.Contains(out, "result:") || !strings.Contains(out, "cycles") {
		t.Fatalf("kernel run output wrong:\n%s", out)
	}
}

func TestCLIExperimentsFigures(t *testing.T) {
	bin := buildCmd(t, "experiments")
	out, _ := runCmd(t, bin, "", "-fig", "4")
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "fabs(f14)") {
		t.Fatalf("figure 4 output wrong:\n%s", out)
	}
	out, _ = runCmd(t, bin, "", "-tab", "1", "-regs", "8")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "sgemm") {
		t.Fatalf("table 1 output wrong:\n%s", out)
	}
}

func TestCLIIlocrunProgramWithCalls(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	plain, _ := runCmd(t, bin, "", "-args", "6", "testdata/program.iloc")
	if !strings.Contains(plain, "int=41") {
		t.Fatalf("6²+5 = 41 expected:\n%s", plain)
	}
	alloc, _ := runCmd(t, bin, "", "-args", "6", "-strategy", "remat", "-regs", "8", "testdata/program.iloc")
	if !strings.Contains(alloc, "int=41") {
		t.Fatalf("allocated program wrong:\n%s", alloc)
	}
}

// -verify and -strict must accept everything the allocator gets right,
// and must not perturb the output: verification is read-only.
func TestCLIVerifyAndStrict(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	plain, _ := runCmd(t, bin, "", "-regs", "4", "testdata/fig1.iloc")
	verified, stderr := runCmd(t, bin, "", "-regs", "4", "-verify", "testdata/fig1.iloc")
	if plain != verified {
		t.Fatalf("-verify changed the output:\n%s\nvs\n%s", plain, verified)
	}
	if strings.Contains(stderr, "degraded") {
		t.Fatalf("unexpected degradation warning: %s", stderr)
	}
	strict, _ := runCmd(t, bin, "", "-regs", "4", "-strict", "testdata/fig1.iloc")
	if plain != strict {
		t.Fatalf("-strict changed the output:\n%s\nvs\n%s", plain, strict)
	}
}

// A syntax error must surface as a located parse error, not a panic.
func TestCLIParseErrorIsLocated(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.iloc")
	if err := os.WriteFile(bad, []byte("routine f()\nentry:\n    bogus r1, r2\n    ret\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := runCmdFail(t, bin, bad)
	if !strings.Contains(stderr, "line 3") || strings.Contains(stderr, "goroutine") {
		t.Fatalf("expected a located parse error, got: %s", stderr)
	}
}

// -trace must produce a valid Chrome trace_event file whose spans cover
// every pipeline pass the allocation ran and every driver unit, and
// -metrics must dump the flat registry; neither may perturb the
// allocated output.
func TestCLIRallocTraceAndMetrics(t *testing.T) {
	bin := buildCmd(t, "ralloc")
	plain, _ := runCmd(t, bin, "", "-regs", "4", "testdata/fig1.iloc", "testdata/sumabs.iloc")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out, stderr := runCmd(t, bin, "", "-regs", "4", "-trace", tracePath, "-metrics",
		"testdata/fig1.iloc", "testdata/sumabs.iloc")
	if out != plain {
		t.Fatalf("-trace/-metrics changed the output:\n%s\nvs\n%s", out, plain)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	passes := map[string]bool{}
	units := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Cat {
		case "pass":
			passes[e.Name] = true
		case "unit":
			units[e.Name] = true
		}
	}
	// Every unconditional pipeline pass of a converging remat run must
	// appear (conditional passes depend on mode and spilling).
	for _, p := range []string{"cfa", "renumber", "build", "coalesce", "costs", "simplify", "select", "rewrite"} {
		if !passes[p] {
			t.Fatalf("trace missing pipeline pass %q; saw %v", p, passes)
		}
	}
	for _, u := range []string{"testdata/fig1.iloc", "testdata/sumabs.iloc"} {
		if !units[u] {
			t.Fatalf("trace missing driver unit %q; saw %v", u, units)
		}
	}

	for _, want := range []string{"core.allocations 2", "driver.units 2", "core.pass.build.count"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("-metrics output missing %q:\n%s", want, stderr)
		}
	}
}

// ilocrun error paths: a missing file, an unknown kernel and a bad
// argument must each exit nonzero with a message naming the culprit —
// not a panic, not a zero-exit with garbage output.
func TestCLIIlocrunMissingFile(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	stderr := runCmdFail(t, bin, "no-such-file.iloc")
	if !strings.Contains(stderr, "no-such-file.iloc") {
		t.Fatalf("error does not name the missing file:\n%s", stderr)
	}
}

func TestCLIIlocrunUnknownKernel(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	stderr := runCmdFail(t, bin, "-kernel", "nosuchkernel")
	// The error lists the available kernels so the user can fix the name.
	if !strings.Contains(stderr, "nosuchkernel") || !strings.Contains(stderr, "sgemm") {
		t.Fatalf("unknown-kernel error unhelpful:\n%s", stderr)
	}
}

func TestCLIIlocrunBadArgument(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	stderr := runCmdFail(t, bin, "-args", "not-a-number", "testdata/sumabs.iloc")
	if !strings.Contains(stderr, "not-a-number") {
		t.Fatalf("error does not name the bad argument:\n%s", stderr)
	}
}

func TestCLIIlocrunKernelCounts(t *testing.T) {
	bin := buildCmd(t, "ilocrun")
	out, _ := runCmd(t, bin, "", "-kernel", "sgemm", "-counts")
	if !strings.Contains(out, "result:") || !strings.Contains(out, "fmul") {
		t.Fatalf("kernel -counts output wrong:\n%s", out)
	}
}

// End-to-end serving: boot rallocd on an ephemeral port, drive it with
// rallocload (every 200 verified), check that a request with a short
// X-Deadline-Ms comes back promptly as a spill-everywhere degradation
// with reason "deadline", and require a clean drain on SIGTERM.
func TestCLIServerEndToEnd(t *testing.T) {
	rallocd := buildCmd(t, "rallocd")
	rallocload := buildCmd(t, "rallocload")
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")

	daemon := exec.Command(rallocd, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var daemonErr strings.Builder
	daemon.Stderr = &daemonErr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	var addr string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("rallocd never wrote its address:\n%s", daemonErr.String())
	}
	url := "http://" + addr

	runCmd(t, rallocload, "", "-url", url, "-input", "testdata/sumabs.iloc",
		"-requests", "5", "-c", "2", "-expect-verified", "-out", filepath.Join(dir, "bench.json"))

	// The deadline contract over the wire: a 1ms budget on a routine the
	// allocator cannot finish that fast must answer ~immediately with
	// the degraded allocation, reason "deadline".
	body := `{"iloc": ` + jsonString(t, "testdata/fig1.iloc") + `}`
	req, err := http.NewRequest("POST", url+"/v1/allocate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "1")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("short-deadline request took %v", elapsed)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("deadline request status %d:\n%s", resp.StatusCode, raw)
	}
	var ar struct {
		Results []struct {
			Error         string `json:"error"`
			Code          string `json:"code"`
			Degraded      bool   `json:"degraded"`
			DegradeReason string `json:"degrade_reason"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil || len(ar.Results) == 0 {
		t.Fatalf("bad deadline response: %v\n%s", err, raw)
	}
	// A 1ms budget may or may not expire before a small allocation
	// finishes; what is forbidden is an error or a missing result.
	u := ar.Results[0]
	if u.Error != "" || u.Code == "" {
		t.Fatalf("deadline unit = %+v", u)
	}
	if u.Degraded && u.DegradeReason != "deadline" {
		t.Fatalf("degraded with reason %q, want %q", u.DegradeReason, "deadline")
	}

	// SIGTERM: graceful drain, exit 0.
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rallocd exit: %v\n%s", err, daemonErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("rallocd did not drain:\n%s", daemonErr.String())
	}
	if !strings.Contains(daemonErr.String(), "drained") {
		t.Fatalf("no drain message:\n%s", daemonErr.String())
	}
}

// jsonString reads a file and returns its contents as a JSON string
// literal.
func jsonString(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}
