package driver_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/server"
)

// TestKeyForGolden pins the content key. Existing -cache-dir trees,
// exported bundles and the proxy's ring placement all address entries
// by these digests, so a change to the printer, the options rendering
// or the hashing that moves any of them orphans every stored result.
func TestKeyForGolden(t *testing.T) {
	emb, err := machines.Lookup("embedded-8")
	if err != nil {
		t.Fatal(err)
	}
	def := server.DefaultOptions()
	onEmb := def
	onEmb.Machine = emb
	want := []struct {
		file, routine, def, emb string
	}{
		{"fig1.iloc", "fig1",
			"d66e2529197c4aaca1d41ce6a1a49b8394822127ec2f755e94a06cc7191ad599",
			"8137a31cb33ff791afd1020636e9bc0af936556f77e5f16e8d821194ecb2514d"},
		{"program.iloc", "main",
			"0fb6e13aae659ee5bad4493b73ee5d625c1415bbca5efa2a06692211a7fd5db2",
			"a08e2ac2bb4bfd161b5e8bd80f094a0de2937a0f62c846bc840c1d214095539e"},
		{"program.iloc", "square",
			"1aa86673568d70f7704b0af488fe603b7a17cbce4958f4977c4364dddf3531e0",
			"e5f8c733bd48c51d359d71d639dedb4b3d512b4d333f545b1b10507e91158b38"},
		{"sumabs.iloc", "sumabs",
			"7dd1178dd83328f5fda4a34727f175cc19ad78b82ce90a41b8d674753b1acf39",
			"6b4d49a0287032fe87a746f356a75af8d7c2b6cc8594dc40f6c7de7961738037"},
	}
	files, err := filepath.Glob("../../testdata/*.iloc")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rts, err := iloc.ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, rt := range rts {
			seen++
			found := false
			for _, w := range want {
				if w.file != filepath.Base(f) || w.routine != rt.Name {
					continue
				}
				found = true
				if got := driver.KeyFor(rt, def); string(got) != w.def {
					t.Errorf("%s/%s default options: key %s, want %s", w.file, w.routine, got, w.def)
				}
				if got := driver.KeyFor(rt, onEmb); string(got) != w.emb {
					t.Errorf("%s/%s embedded-8: key %s, want %s", w.file, w.routine, got, w.emb)
				}
			}
			if !found {
				t.Errorf("%s/%s has no pinned key", filepath.Base(f), rt.Name)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("keyed %d testdata routines, %d are pinned", seen, len(want))
	}

	// The corpus covers every op shape, data initializers and float
	// immediates; one digest over all its keys pins them together.
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const corpusWant = "710a39ec2ced28fd64e4fb17df49447bfcd47ccfb05230812125cde9cca20060"
	if got := keysDigest(corpus.Routines(units), def); got != corpusWant {
		t.Errorf("corpus count=256,seed=3 keys digest %s, want %s", got, corpusWant)
	}
}

// keysDigest hashes the keys of rts under opts, in order.
func keysDigest(rts []*iloc.Routine, opts core.Options) string {
	h := sha256.New()
	for _, rt := range rts {
		h.Write([]byte(driver.KeyFor(rt, opts)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keySink keeps the compiler from dropping the measured calls.
var keySink driver.Key

// BenchmarkKeyFor keys every routine of one serve-warm body (corpus
// count=256,seed=3) per op under the daemon's default options.
func BenchmarkKeyFor(b *testing.B) {
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := server.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rt := range units[i%len(units)].Routines {
			keySink = driver.KeyFor(rt, opts)
		}
	}
}
