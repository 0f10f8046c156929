package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/suite"
	"repro/internal/target"
)

// cloneResult is what a snapshot must decode to: the routine as Clone
// copies it, and every iteration and pass record copied.
func cloneResult(res *Result) *Result {
	c := *res
	if res.Routine != nil {
		c.Routine = res.Routine.Clone()
	}
	c.Iterations = nil
	for _, it := range res.Iterations {
		it.Passes = append([]PassStat(nil), it.Passes...)
		c.Iterations = append(c.Iterations, it)
	}
	return &c
}

// checkRoundTrip decodes a snapshot of res twice and checks each decode
// equals cloneResult(res), prints as res does, and shares no storage
// with the other decode.
func checkRoundTrip(t *testing.T, what string, res *Result) {
	t.Helper()
	snap := NewSnapshot(res)
	want := cloneResult(res)
	got, err := snap.Result()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded snapshot differs from a clone:\ngot  %+v\nwant %+v", what, got, want)
	}
	if got.Routine != nil {
		if !reflect.DeepEqual(got.Routine, res.Routine.Clone()) {
			t.Fatalf("%s: decoded routine differs from Clone()", what)
		}
		if g, w := iloc.Print(got.Routine), iloc.Print(res.Routine); g != w {
			t.Fatalf("%s: decoded routine prints differently:\n%s\nwant\n%s", what, g, w)
		}
	}
	vandalize(got)
	again, err := snap.Result()
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("%s: mutating one decode changed the next (err %v)", what, err)
	}
}

// vandalize writes into every mutable part of a decoded result.
func vandalize(res *Result) {
	for i := range res.Iterations {
		res.Iterations[i].Coalesced = -7
		for j := range res.Iterations[i].Passes {
			res.Iterations[i].Passes[j].Nodes = 12345
		}
	}
	if res.Routine == nil {
		return
	}
	for i := range res.Routine.Labels {
		res.Routine.Labels[i] = "clobbered"
	}
	for i := range res.Routine.PhiSlab {
		res.Routine.PhiSlab[i] = iloc.IntReg(77)
	}
	for _, b := range res.Routine.Blocks {
		for _, in := range b.Instrs {
			in.Imm, in.Label, in.Phi.Len = 99, 12345, 3
		}
		b.Instrs = append(b.Instrs, iloc.MakeLdi(iloc.IntReg(1), 1))
		b.Succs = append(b.Succs, b)
	}
	for i := range res.Routine.Data {
		if len(res.Routine.Data[i].Init) > 0 {
			res.Routine.Data[i].Init[0] = 42
		}
	}
	res.Routine.Name = "clobbered"
}

// TestSnapshotCoversEveryField pins the fields the codec writes. A new
// field on any of these types must be added to snapshot.go (and here).
func TestSnapshotCoversEveryField(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(Result{}):         {"Routine", "Iterations", "SpilledRanges", "RematSpills", "Strategy", "Machine", "Degraded", "DegradeReason"},
		reflect.TypeOf(IterationStats{}): {"Spilled", "Remat", "Coalesced", "Splits", "Passes"},
		reflect.TypeOf(PassStat{}):       {"Name", "Time", "Nodes", "Edges", "Coalesced", "Splits", "Spilled", "Remat"},
		reflect.TypeOf(iloc.Routine{}):   {"Name", "Params", "Data", "Blocks", "Labels", "PhiSlab", "NextReg", "Allocated", "FrameWords", "CallerSave"},
		reflect.TypeOf(iloc.Block{}):     {"Index", "Label", "Instrs", "Succs", "Preds", "Depth"},
		reflect.TypeOf(iloc.Instr{}):     {"Op", "Cond", "IsSplit", "IsSpill", "Dst", "Src", "Label", "Label2", "Phi", "Imm", "FImm"},
		reflect.TypeOf(iloc.Data{}):      {"Label", "ReadOnly", "Words", "Init", "IsFloat"},
		reflect.TypeOf(iloc.Param{}):     {"Reg"},
		reflect.TypeOf(iloc.PhiArgs{}):   {"Off", "Len"},
		reflect.TypeOf(iloc.Reg{}):       {"Class", "N"},
	}
	for typ, fields := range want {
		var have []string
		for i := range typ.NumField() {
			have = append(have, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(have, fields) {
			t.Errorf("%s has fields %v; the snapshot codec encodes %v", typ, have, fields)
		}
	}
}

// TestSnapshotEveryFieldSet round-trips a hand-built result in which
// every field the codec writes is set, including the awkward cases:
// φ-nodes with and without arguments, a stale block Index, an edge to
// a block outside the routine, the escaped register forms, labels
// outside the table, negative counts, -0.0 and huge immediates, and a
// pass outside the pipeline.
func TestSnapshotEveryFieldSet(t *testing.T) {
	rt := &iloc.Routine{
		Name:       "every",
		Params:     []iloc.Param{{Reg: iloc.IntReg(3)}, {Reg: iloc.NoReg}, {Reg: iloc.Reg{Class: 9, N: 4}}},
		Data:       []iloc.Data{{Label: "tab", ReadOnly: true, Words: 3, Init: []float64{-1.5, 0, math.MaxFloat64}, IsFloat: true}, {Label: "z", Words: 1}},
		Labels:     []string{"elsewhere", "entry", "loop", ""},
		PhiSlab:    []iloc.Reg{iloc.IntReg(1), iloc.FltReg(2), iloc.NoReg, {Class: 9, N: -4}},
		NextReg:    [iloc.NumClasses]int{40, 1 << 40},
		Allocated:  true,
		FrameWords: 6,
		CallerSave: [iloc.NumClasses]int{5, -2},
	}
	outside := &iloc.Block{Index: 1, Label: 0}
	b0 := &iloc.Block{Index: 0, Label: 1, Depth: 2}
	b1 := &iloc.Block{Index: 7, Label: 2, Depth: -1} // stale Index
	b0.Instrs = []*iloc.Instr{
		{Op: iloc.OpPhi, Dst: iloc.IntReg(5), Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}, Phi: iloc.PhiArgs{Off: 0, Len: 3}},
		{Op: iloc.OpPhi, Dst: iloc.IntReg(6), Src: [2]iloc.Reg{iloc.NoReg, iloc.NoReg}, Phi: iloc.PhiArgs{Off: 3}},
		{Op: iloc.OpLdi, Dst: iloc.Reg{Class: iloc.ClassInt, N: -3}, Imm: math.MinInt64, IsSpill: true, Label: -1, Label2: math.MaxInt32},
		iloc.MakeFldi(iloc.FltReg(1), math.Copysign(0, -1)),
		{Op: iloc.OpMov, Dst: iloc.IntReg(2), Src: [2]iloc.Reg{iloc.IntReg(iloc.MaxRegNum), iloc.Reg{Class: 2, N: 8}}, IsSplit: true},
		{Op: iloc.OpBr, Src: [2]iloc.Reg{iloc.IntReg(4), iloc.NoReg}, Label: 2, Label2: 1, Cond: 3},
	}
	b1.Instrs = []*iloc.Instr{}
	b0.Succs = []*iloc.Block{b1, b0, outside}
	b0.Preds = []*iloc.Block{b1}
	b1.Preds = []*iloc.Block{b0}
	rt.Blocks = []*iloc.Block{b0, b1}

	res := &Result{
		Routine: rt,
		Iterations: []IterationStats{
			{Spilled: [iloc.NumClasses]int{3, 1}, Remat: [iloc.NumClasses]int{2, -1}, Coalesced: 4, Splits: 5,
				Passes: []PassStat{{Name: "renumber", Time: 1234, Nodes: 10, Edges: 20, Coalesced: 1, Splits: 2, Spilled: 3, Remat: 4},
					{Name: "not-a-pass", Time: -5}}},
			{},
		},
		SpilledRanges: 9,
		RematSpills:   -8,
		Strategy:      "remat:split=all-loops",
		Machine:       target.WithRegs(6),
		Degraded:      true,
		DegradeReason: "did not converge",
	}
	checkRoundTrip(t, "every field", res)
	checkRoundTrip(t, "empty result", &Result{})
	checkRoundTrip(t, "empty routine", &Result{Routine: &iloc.Routine{}})
}

// TestSnapshotRoundTrip runs the codec over every testdata routine
// (params, data, several routines per file), every suite kernel before
// and after cfg.Analyze, the kernels' allocations, a degraded
// spill-everywhere result, and every routine and result of the golden
// corpora under remat, chaitin and spill-everywhere.
func TestSnapshotRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.iloc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata routines (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rts, err := iloc.ParseProgram(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range rts {
			checkRoundTrip(t, p+":"+rt.Name, &Result{Routine: rt})
		}
	}

	m := target.WithRegs(6)
	for _, k := range suite.All() {
		rt := k.Routine()
		checkRoundTrip(t, k.Name, &Result{Routine: rt})
		if _, _, err := cfg.Analyze(rt); err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, k.Name+" analyzed", &Result{Routine: rt})
		res, err := Allocate(context.Background(), k.Routine(), Options{Machine: m, Strategy: "remat"})
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, k.Name+" allocated", res)
	}

	degraded, err := Allocate(context.Background(), iloc.MustParse(fig1Src),
		Options{Machine: target.WithRegs(3), Strategy: "remat", MaxIterations: 1})
	if err != nil || !degraded.Degraded {
		t.Fatalf("want a degraded result, got %v (err %v)", degraded, err)
	}
	checkRoundTrip(t, "degraded fig1", degraded)

	// The corpora check the codec, not concurrency, and take 20 s under
	// the race detector.
	if testing.Short() || raceEnabled {
		return
	}
	seen := map[string]bool{}
	for _, g := range goldenCorpusDigests {
		if !seen[g.spec] {
			seen[g.spec] = true
			checkCorpusRoundTrip(t, g.spec, g.machine)
		}
	}
}

func checkCorpusRoundTrip(t *testing.T, specText, machine string) {
	t.Helper()
	spec, err := corpus.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machines.Lookup(machine)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range corpus.Routines(units) {
		checkRoundTrip(t, rt.Name, &Result{Routine: rt})
		for _, strategy := range []string{"remat", "chaitin", "spill-everywhere"} {
			res, err := Allocate(context.Background(), rt, Options{Machine: m, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			checkRoundTrip(t, specText+" "+strategy+" "+rt.Name, res)
		}
	}
}
