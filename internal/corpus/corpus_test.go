package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/iloc"
)

func TestSpecCanonicalRoundtrip(t *testing.T) {
	def := Default()
	if got, want := def.String(), "count=64,seed=1,depth=2,regions=6,calls=0.125,pressure=3,words=16"; got != want {
		t.Fatalf("default spec = %q, want %q", got, want)
	}
	for _, text := range []string{
		"",
		"count=10",
		"count=1000,seed=42,depth=3,regions=8,calls=0.2,pressure=6,words=16",
		"calls=-1",
	} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if back != s {
			t.Fatalf("spec %q did not round-trip: %v vs %v", text, s, back)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, text := range []string{
		"count=zero",
		"bananas=3",
		"count",
		"count=-5",
		"depth=-1",
		"pressure=-2",
		"calls=NaN",
		"calls=nan",
		"calls=Inf",
		"calls=-Inf",
		"calls=1e400",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", text)
		}
	}
}

// FuzzParseSpec: every spec ParseSpec accepts is the corpus its
// canonical string names, so ParseSpec(s.String()) gives s back.
func FuzzParseSpec(f *testing.F) {
	for _, text := range []string{
		"", "count=10", "calls=-1", "calls=NaN", "seed=-9,calls=1e-400",
		"count=1000,seed=42,depth=3,regions=8,calls=0.2,pressure=6,words=16",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted %q, whose canonical form %q fails: %v", text, s, s.String(), err)
		}
		if back != s {
			t.Fatalf("ParseSpec(%q) = %v does not round-trip: %v", text, s, back)
		}
	})
}

// TestGenerateDeterministic is the reproducibility contract: the spec
// string is the corpus. Same spec, byte-identical corpus; any knob
// changed, a different one.
func TestGenerateDeterministic(t *testing.T) {
	spec, err := ParseSpec("count=12,seed=7,calls=0.25")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("unit counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text || a[i].SHA256 != b[i].SHA256 {
			t.Fatalf("unit %d differs between identical generations", i)
		}
	}
	other := spec
	other.Seed = 8
	c, err := Generate(other)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Text == c[0].Text {
		t.Fatal("different seeds produced an identical unit")
	}
	// Units are order-free: generating one unit alone matches its place
	// in the full corpus.
	if u := GenerateUnit(spec, 5); u.Text != a[5].Text {
		t.Fatal("GenerateUnit(5) differs from Generate()[5]")
	}
}

// TestParseRoundtrip: every generated routine's printed form parses
// back to the identical printed form, so corpora survive the disk.
func TestParseRoundtrip(t *testing.T) {
	spec, _ := ParseSpec("count=20,seed=3")
	units, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		parsed, err := iloc.ParseProgram(u.Text)
		if err != nil {
			t.Fatalf("unit %s: %v", u.Name, err)
		}
		if len(parsed) != len(u.Routines) {
			t.Fatalf("unit %s: %d routines parsed, generated %d", u.Name, len(parsed), len(u.Routines))
		}
		for i, rt := range parsed {
			if err := iloc.Verify(rt, false); err != nil {
				t.Fatalf("unit %s routine %s: %v", u.Name, rt.Name, err)
			}
			if got, want := iloc.Print(rt), iloc.Print(u.Routines[i]); got != want {
				t.Fatalf("unit %s routine %s: print/parse/print not a fixpoint", u.Name, rt.Name)
			}
		}
	}
}

func TestLeafOnlyCorpus(t *testing.T) {
	spec, _ := ParseSpec("count=8,calls=-1")
	units, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if len(u.Routines) != 1 {
			t.Fatalf("unit %s: %d routines with calls disabled, want 1", u.Name, len(u.Routines))
		}
		if e := entryFor(u); e.Calls != 0 {
			t.Fatalf("unit %s: %d call instructions with calls disabled", u.Name, e.Calls)
		}
	}
}

func TestWriteLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	spec, _ := ParseSpec("count=10,seed=11")
	written, err := WriteDir(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if written.Units != 10 || len(written.Files) != 10 {
		t.Fatalf("manifest: %d units, %d files", written.Units, len(written.Files))
	}
	m, units, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SHA256 != written.SHA256 || m.Spec != spec.String() {
		t.Fatalf("loaded manifest differs: %+v vs %+v", m, written)
	}
	gen, _ := Generate(spec)
	if len(units) != len(gen) {
		t.Fatalf("loaded %d units, generated %d", len(units), len(gen))
	}
	for i := range units {
		if units[i].Text != gen[i].Text {
			t.Fatalf("unit %d loaded differently than generated", i)
		}
	}

	// Tampering with a unit file must be detected by its hash.
	victim := filepath.Join(dir, m.Files[0].File)
	blob, _ := os.ReadFile(victim)
	if err := os.WriteFile(victim, append(blob, []byte("; tampered\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "manifest hash") {
		t.Fatalf("tampered corpus loaded; err = %v", err)
	}
}
