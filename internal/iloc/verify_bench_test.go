package iloc_test

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
)

// BenchmarkVerify checks every routine of a fixed corpus per op, as
// core.Allocate checks each input.
func BenchmarkVerify(b *testing.B) {
	spec, err := corpus.ParseSpec("count=50,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	rts := corpus.Routines(units)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, rt := range rts {
			if err := iloc.Verify(rt, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// A routine that passes costs Verify the same allocations at any length:
// nothing is formatted per instruction.
func TestVerifyAllocsIndependentOfLength(t *testing.T) {
	routine := func(n int) *iloc.Routine {
		var src strings.Builder
		src.WriteString("routine f()\nentry:\n ldi r1, 0\n jmp body\nbody:\n")
		for i := 3; i < n; i++ {
			src.WriteString(" addi r1, r1, 1\n")
		}
		src.WriteString(" retr r1\n")
		rt := iloc.MustParse(src.String())
		if got := rt.NumInstrs(); got != n {
			t.Fatalf("routine has %d instructions, want %d", got, n)
		}
		return rt
	}
	short, long := routine(10), routine(1000)
	allocs := func(rt *iloc.Routine) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := iloc.Verify(rt, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := allocs(short), allocs(long); s != l {
		t.Fatalf("Verify allocated %v times on 10 instructions and %v on 1000", s, l)
	}
}
