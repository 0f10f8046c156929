package liveness

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/iloc"
)

// benchSpec is the corpus the layer microbenchmarks run over; a fixed
// spec keeps their ns/op and allocs/op comparable between commits.
const benchSpec = "count=50,seed=7"

var sink *Info

// corpusRoutines generates the benchmark corpus with CFGs built.
func corpusRoutines(tb testing.TB) []*iloc.Routine {
	tb.Helper()
	spec, err := corpus.ParseSpec(benchSpec)
	if err != nil {
		tb.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rts := corpus.Routines(units)
	for _, rt := range rts {
		if err := cfg.Build(rt); err != nil {
			tb.Fatal(err)
		}
	}
	return rts
}

// BenchmarkCompute solves both classes of every corpus routine per op:
// "fresh" with Compute, "reused" with ComputeInto on the storage earlier
// solves left and a precomputed visiting order, as the allocator's
// coalesce rebuilds solve, and "both" with ComputeAllInto on that
// storage, one walk for both classes, as renumber and the build pass
// solve.
func BenchmarkCompute(b *testing.B) {
	rts := corpusRoutines(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rt := range rts {
				for c := iloc.Class(0); c < iloc.NumClasses; c++ {
					sink = Compute(rt, c)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var infos [iloc.NumClasses]Info
		rpos := make([][]*iloc.Block, len(rts))
		for i, rt := range rts {
			rpos[i] = cfg.ReversePostorder(rt)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, rt := range rts {
				for c := iloc.Class(0); c < iloc.NumClasses; c++ {
					ComputeInto(&infos[c], rt, c, rpos[j])
				}
			}
		}
	})
	b.Run("both", func(b *testing.B) {
		infos := [iloc.NumClasses]*Info{new(Info), new(Info)}
		rpos := make([][]*iloc.Block, len(rts))
		for i, rt := range rts {
			rpos[i] = cfg.ReversePostorder(rt)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, rt := range rts {
				ComputeAllInto(&infos, rt, rpos[j])
			}
		}
	})
}

// ComputeInto must give Compute's solution whatever the storage held,
// and a re-solve into storage of the same shape, by ComputeInto or by
// ComputeAllInto, must not allocate.
func TestComputeIntoReusesStorage(t *testing.T) {
	rts := corpusRoutines(t)
	var info Info
	for _, rt := range rts {
		rpo := cfg.ReversePostorder(rt)
		for c := iloc.Class(0); c < iloc.NumClasses; c++ {
			ComputeInto(&info, rt, c, rpo)
			want := Compute(rt, c)
			for _, b := range rt.Blocks {
				i := b.Index
				in, out, ue, kill := info.LiveInOf(i), info.LiveOutOf(i), info.UEVarOf(i), info.KillOf(i)
				if !in.Equal(want.LiveIn[i]) || !out.Equal(want.LiveOut[i]) ||
					!ue.Equal(want.UEVar[i]) || !kill.Equal(want.Kill[i]) {
					t.Fatalf("%s class %d block %s: reused solve differs from a fresh one", rt.Name, c, rt.Labels[b.Label])
				}
			}
		}
	}
	rt := rts[0]
	rpo := cfg.ReversePostorder(rt)
	ComputeInto(&info, rt, iloc.ClassInt, rpo)
	if n := testing.AllocsPerRun(10, func() { ComputeInto(&info, rt, iloc.ClassInt, rpo) }); n != 0 {
		t.Fatalf("re-solving into same-shape storage allocated %v times, want 0", n)
	}
	all := [iloc.NumClasses]*Info{new(Info), new(Info)}
	ComputeAllInto(&all, rt, rpo)
	if n := testing.AllocsPerRun(10, func() { ComputeAllInto(&all, rt, rpo) }); n != 0 {
		t.Fatalf("re-solving both classes into same-shape storage allocated %v times, want 0", n)
	}
}
