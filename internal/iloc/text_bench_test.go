package iloc_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
)

// serveWarmBodies returns the unit texts of the corpus the serve-warm
// benchmark workload posts: what each serving hop parses per request.
func serveWarmBodies(b *testing.B) []string {
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([]string, len(units))
	for i, u := range units {
		bodies[i] = u.Text
	}
	return bodies
}

// Sinks keep the compiler from dropping the measured calls.
var (
	parseSink []*iloc.Routine
	printSink string
)

// BenchmarkParseProgram parses one serve-warm body per op.
func BenchmarkParseProgram(b *testing.B) {
	bodies := serveWarmBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rts, err := iloc.ParseProgram(bodies[i%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		parseSink = rts
	}
}

// BenchmarkPrint prints every routine of one serve-warm body per op.
func BenchmarkPrint(b *testing.B) {
	var progs [][]*iloc.Routine
	for _, body := range serveWarmBodies(b) {
		rts, err := iloc.ParseProgram(body)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, rts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rt := range progs[i%len(progs)] {
			printSink = iloc.Print(rt)
		}
	}
}

var cloneSink *iloc.Routine

// BenchmarkClone clones every routine of one serve-warm body per op:
// the copy core.Allocate makes of each input before it rewrites it.
func BenchmarkClone(b *testing.B) {
	var progs [][]*iloc.Routine
	for _, body := range serveWarmBodies(b) {
		rts, err := iloc.ParseProgram(body)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, rts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rt := range progs[i%len(progs)] {
			cloneSink = rt.Clone()
		}
	}
}
