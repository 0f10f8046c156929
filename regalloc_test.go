package regalloc

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const apiSample = `
routine triple(r1)
entry:
    getparam r1, 0
    muli r2, r1, 3
    retr r2
`

func TestParseAllocateRun(t *testing.T) {
	rt, err := Parse(apiSample)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(rt); err != nil {
		t.Fatal(err)
	}
	res, err := Allocate(rt, Options{Machine: StandardMachine(), Strategy: "remat"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Routine, Int(14))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 42 {
		t.Fatalf("triple(14) = %d", out.RetInt)
	}
}

func TestRunUnallocated(t *testing.T) {
	out, err := Run(MustParse(apiSample), Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 15 {
		t.Fatalf("triple(5) = %d", out.RetInt)
	}
}

func TestBuilderThroughAPI(t *testing.T) {
	b := NewBuilder("double")
	p := b.IntParam()
	r := b.Int()
	b.Block("entry")
	b.Getparam(p, 0)
	b.Add(r, p, p)
	b.Retr(r)
	rt := b.Routine()
	out, err := Run(rt, Int(21))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 42 {
		t.Fatalf("double(21) = %d", out.RetInt)
	}
}

func TestMachines(t *testing.T) {
	if StandardMachine().Regs[0] != 16 || HugeMachine().Regs[0] != 128 {
		t.Fatal("machine presets wrong")
	}
	if MachineWithRegs(9).Regs[1] != 9 {
		t.Fatal("WithRegs wrong")
	}
}

func TestMachineZooAndCorpusFacade(t *testing.T) {
	names := MachineNames()
	if len(names) < 5 || len(Machines()) != len(names) {
		t.Fatalf("zoo too small: %v", names)
	}
	m, err := MachineByName("embedded-8")
	if err != nil || m.Regs[0] != 8 {
		t.Fatalf("embedded-8: %v %+v", err, m)
	}
	if s := StarvedMachine(m); s.Regs[0] >= m.Regs[0] || s.Validate() != nil {
		t.Fatalf("starved variant wrong: %+v", s)
	}
	var miss *UnknownMachineError
	if _, err := MachineByName("vax"); !errors.As(err, &miss) || len(miss.Registered) != len(names) {
		t.Fatalf("miss = %v", err)
	}

	spec, err := ParseCorpusSpec("count=2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	units, err := GenerateCorpus(spec)
	if err != nil || len(units) != 2 {
		t.Fatalf("generate: %v (%d units)", err, len(units))
	}
	dir := t.TempDir()
	man, err := WriteCorpus(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	man2, loaded, err := LoadCorpus(dir)
	if err != nil || man2.SHA256 != man.SHA256 || len(loaded) != len(units) {
		t.Fatalf("load: %v (%+v vs %+v)", err, man2, man)
	}
	if loaded[0].Text != units[0].Text {
		t.Fatal("written corpus differs from generated corpus")
	}
}

func TestSuiteAccess(t *testing.T) {
	ks := Suite()
	if len(ks) < 15 {
		t.Fatalf("suite too small: %d", len(ks))
	}
	if KernelByName("sgemm") == nil {
		t.Fatal("sgemm missing")
	}
}

func TestTranslateC(t *testing.T) {
	c, err := TranslateC(MustParse(apiSample))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c, "long triple(long p0)") {
		t.Fatalf("translation wrong:\n%s", c)
	}
}

func TestExperimentEntryPoints(t *testing.T) {
	if _, err := Figure2(); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure4(); err != nil {
		t.Fatal(err)
	}
	r1, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r1.RematCycles >= r1.ChaitinCycles {
		t.Fatal("figure 1 shape lost at API level")
	}
	r3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Tags) == 0 {
		t.Fatal("figure 3 empty")
	}
}

func TestPrintRoundTrip(t *testing.T) {
	rt := MustParse(apiSample)
	rt2, err := Parse(Print(rt))
	if err != nil {
		t.Fatal(err)
	}
	if Print(rt2) != Print(rt) {
		t.Fatal("round trip unstable")
	}
}

func TestProgramAPI(t *testing.T) {
	rts, err := ParseProgram(`
routine main()
entry:
    ldi r1, 6
    setarg r1, 0
    call twice
    getret r2
    retr r2

routine twice(r1)
entry:
    getparam r1, 0
    add r2, r1, r1
    retr r2
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunProgram(rts[0], rts[1:])
	if err != nil {
		t.Fatal(err)
	}
	if out.RetInt != 12 {
		t.Fatalf("twice(6) = %d", out.RetInt)
	}
}

func TestFloatArgAPI(t *testing.T) {
	out, err := Run(MustParse(`
routine half(f1)
entry:
    fgetparam f1, 0
    fldi f2, 0.5
    fmul f1, f1, f2
    retf f1
`), Float(9))
	if err != nil {
		t.Fatal(err)
	}
	if out.RetFloat != 4.5 {
		t.Fatalf("half(9) = %g", out.RetFloat)
	}
}

func TestTableAPIs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow-ish")
	}
	rows, err := Table1(Table1Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatTable1(rows), "Table 1") {
		t.Fatal("Table 1 formatting broken")
	}
	cols, err := Table2(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatTable2(cols), "repvid") {
		t.Fatal("Table 2 formatting broken")
	}
}

// TestDriverFacade exercises the batch-allocation surface: a module of
// routines allocated concurrently with a shared result cache, results
// in input order, and Stats/CacheStats exposed through the facade.
func TestDriverFacade(t *testing.T) {
	units := []DriverUnit{
		{Name: "a", Routine: MustParse(apiSample)},
		{Name: "b", Routine: MustParse(apiSample)}, // identical → cache hit on rerun
	}
	cache := NewResultCache(0)
	d := NewDriver(DriverConfig{
		Options: Options{Machine: StandardMachine(), Strategy: "remat"},
		Workers: 4,
		Cache:   cache,
	})
	batch := d.Run(context.Background(), units)
	if err := batch.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Name != "a" || batch.Results[1].Name != "b" {
		t.Fatal("results out of order")
	}
	for _, r := range batch.Results {
		out, err := Run(r.Result.Routine, Int(14))
		if err != nil {
			t.Fatal(err)
		}
		if out.RetInt != 42 {
			t.Fatalf("%s: triple(14) = %d", r.Name, out.RetInt)
		}
	}
	warm := d.Run(context.Background(), units)
	if warm.Stats.CacheHits != 2 {
		t.Fatalf("warm run: %d hits", warm.Stats.CacheHits)
	}
	if cs := cache.Stats(); cs.Hits < 2 || cs.Entries != 1 {
		t.Fatalf("cache stats: %+v", cs)
	}
	if !strings.Contains(warm.Stats.Format(), "driver:") {
		t.Fatal("stats format broken")
	}

	// The one-shot helper works without an engine.
	if err := AllocateBatch(units, DriverConfig{}).FirstErr(); err != nil {
		t.Fatal(err)
	}
}
