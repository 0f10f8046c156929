// Package corpus scales internal/rgen into a corpus engine: thousands
// of deterministic, verified ILOC routines with controlled CFG shape,
// loop depth, call density and register pressure, generated from a
// compact spec plus a seed. A corpus is reproducible without being
// committed — the spec string is the corpus; WriteDir materializes it
// on disk with a manifest of content hashes so a replayed corpus is
// provably the one the spec names.
//
// The spec is a comma-separated key=value string:
//
//	count=N      generation units (default 64); a unit is one program
//	             (main plus leaf callees) or one leaf routine
//	seed=S       base seed (default 1); every unit derives its own
//	             seed from (S, index), so generation is order-free
//	depth=D      max loop/diamond nesting per routine (default 2)
//	regions=R    max top-level regions per routine (default 6)
//	calls=F      per-slot call probability (default 0.125); a negative
//	             value disables calls, making every unit one routine
//	pressure=P   live register pairs threaded to the exit (default 3)
//	words=W      static data words per array (default 16)
//
// Two corpora with the same canonical spec are byte-identical; two
// specs differing in any knob diverge. The bench/ harness replays
// corpora through the driver and the serving stack, rallocload -corpus
// replays a written one over HTTP, and cmd/rcorpus generates and
// inspects them.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/iloc"
	"repro/internal/rgen"
)

// Spec is the parsed form of a corpus description. The zero value is
// not a valid spec; use Default, ParseSpec, or fill the fields and let
// withDefaults normalize (Generate and String do).
type Spec struct {
	Count       int     // generation units
	Seed        int64   // base seed
	MaxDepth    int     // loop/diamond nesting bound
	Regions     int     // max top-level regions per routine
	CallDensity float64 // per-slot call probability; negative disables
	Pressure    int     // live register pairs threaded to the exit
	DataWords   int     // static data words per array
}

// Default returns the default spec: 64 units at seed 1.
func Default() Spec { return Spec{}.withDefaults() }

func (s Spec) withDefaults() Spec {
	if s.Count == 0 {
		s.Count = 64
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxDepth == 0 {
		s.MaxDepth = 2
	}
	if s.Regions == 0 {
		s.Regions = 6
	}
	if s.CallDensity == 0 {
		s.CallDensity = 0.125
	}
	if s.Pressure == 0 {
		s.Pressure = 3
	}
	if s.DataWords == 0 {
		s.DataWords = 16
	}
	return s
}

// Validate rejects specs that cannot generate: non-positive counts or
// structural knobs, or a non-finite call density (NaN would break the
// String/ParseSpec round trip that names a corpus). Pressure and call
// density have no upper bound — a pathological corpus is a legitimate
// one; the allocator is supposed to cope.
func (s Spec) Validate() error {
	n := s.withDefaults()
	if n.Count < 1 {
		return fmt.Errorf("corpus: count must be positive (got %d)", n.Count)
	}
	if math.IsNaN(n.CallDensity) || math.IsInf(n.CallDensity, 0) {
		return fmt.Errorf("corpus: calls must be finite (got %v)", n.CallDensity)
	}
	if n.MaxDepth < 1 || n.Regions < 1 || n.Pressure < 1 || n.DataWords < 1 {
		return fmt.Errorf("corpus: depth, regions, pressure and words must be positive (spec %s)", n.String())
	}
	return nil
}

// String renders the canonical spelling of the spec: every knob, in
// fixed order, defaults applied. Canonical strings are the identity of
// a corpus — the manifest records this form, and ParseSpec(s.String())
// round-trips.
func (s Spec) String() string {
	n := s.withDefaults()
	return fmt.Sprintf("count=%d,seed=%d,depth=%d,regions=%d,calls=%s,pressure=%d,words=%d",
		n.Count, n.Seed, n.MaxDepth, n.Regions,
		strconv.FormatFloat(n.CallDensity, 'g', -1, 64), n.Pressure, n.DataWords)
}

// ParseSpec reads a comma-separated key=value spec. Unknown keys and
// malformed values are errors; omitted keys take their defaults.
func ParseSpec(text string) (Spec, error) {
	s := Spec{}
	if strings.TrimSpace(text) == "" {
		return s.withDefaults(), nil
	}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("corpus: spec entry %q is not key=value", part)
		}
		var err error
		switch key {
		case "count":
			s.Count, err = strconv.Atoi(val)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "depth":
			s.MaxDepth, err = strconv.Atoi(val)
		case "regions":
			s.Regions, err = strconv.Atoi(val)
		case "calls":
			s.CallDensity, err = strconv.ParseFloat(val, 64)
		case "pressure":
			s.Pressure, err = strconv.Atoi(val)
		case "words":
			s.DataWords, err = strconv.Atoi(val)
		default:
			return Spec{}, fmt.Errorf("corpus: unknown spec key %q (known: count, seed, depth, regions, calls, pressure, words)", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("corpus: bad value for %s: %v", key, err)
		}
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Unit is one generation unit: a program of one or more routines
// (Routines[0] is the main; the rest are its leaf callees), its
// canonical text (iloc.Print of each routine, concatenated — the exact
// bytes WriteDir puts on disk) and that text's sha256.
type Unit struct {
	Name     string
	Routines []*iloc.Routine
	Text     string
	SHA256   string
}

// derive computes the seed of unit i from the base seed — a splitmix64
// step, so units are decorrelated and generation of any unit is
// independent of every other (order-free, resumable, parallelizable).
func derive(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// GenerateUnit generates unit i of the spec'd corpus, alone. Same
// (spec, i) always yields the same unit.
func GenerateUnit(spec Spec, i int) Unit {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(derive(spec.Seed, i)))
	name := fmt.Sprintf("c%06d", i)
	cfg := rgen.Config{
		Name:        name,
		LabelPrefix: fmt.Sprintf("u%d_", i),
		MaxDepth:    spec.MaxDepth,
		Regions:     1 + rng.Intn(spec.Regions),
		CallDensity: spec.CallDensity,
		Pressure:    spec.Pressure,
		DataWords:   spec.DataWords,
	}
	var routines []*iloc.Routine
	if spec.CallDensity > 0 {
		main, callees := rgen.GenerateProgram(rng, cfg)
		routines = append([]*iloc.Routine{main}, callees...)
	} else {
		routines = []*iloc.Routine{rgen.Generate(rng, cfg)}
	}
	var b strings.Builder
	for _, rt := range routines {
		b.WriteString(iloc.Print(rt))
		b.WriteString("\n")
	}
	text := b.String()
	sum := sha256.Sum256([]byte(text))
	return Unit{Name: name, Routines: routines, Text: text, SHA256: hex.EncodeToString(sum[:])}
}

// Generate materializes the whole corpus in memory, units in index
// order. Two calls with the same spec produce byte-identical units.
func Generate(spec Spec) ([]Unit, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	units := make([]Unit, spec.Count)
	for i := range units {
		units[i] = GenerateUnit(spec, i)
	}
	return units, nil
}

// Routines flattens a generated corpus into its routines, mains first
// within each unit, corpus order preserved.
func Routines(units []Unit) []*iloc.Routine {
	var out []*iloc.Routine
	for _, u := range units {
		out = append(out, u.Routines...)
	}
	return out
}

// ManifestName is the manifest's filename inside a corpus directory.
const ManifestName = "MANIFEST.json"

// ManifestVersion identifies the manifest schema.
const ManifestVersion = 1

// FileEntry describes one unit file in a written corpus.
type FileEntry struct {
	File     string   `json:"file"`
	Routines []string `json:"routines"`
	SHA256   string   `json:"sha256"`
	Blocks   int      `json:"blocks"`
	Instrs   int      `json:"instrs"`
	Calls    int      `json:"calls"`
}

// Manifest is the on-disk identity of a corpus: the canonical spec it
// was generated from, per-file content hashes, and a corpus hash over
// all of them. Load refuses a corpus whose files do not match.
type Manifest struct {
	Version  int         `json:"version"`
	Spec     string      `json:"spec"`
	Units    int         `json:"units"`
	Routines int         `json:"routines"`
	SHA256   string      `json:"sha256"`
	Files    []FileEntry `json:"files"`
}

func entryFor(u Unit) FileEntry {
	e := FileEntry{File: u.Name + ".iloc", SHA256: u.SHA256}
	for _, rt := range u.Routines {
		e.Routines = append(e.Routines, rt.Name)
		e.Blocks += len(rt.Blocks)
		for _, b := range rt.Blocks {
			e.Instrs += len(b.Instrs)
			for _, in := range b.Instrs {
				if in.Op == iloc.OpCall {
					e.Calls++
				}
			}
		}
	}
	return e
}

// corpusSHA folds the spec and every file hash into the corpus hash.
func corpusSHA(spec string, files []FileEntry) string {
	h := sha256.New()
	fmt.Fprintf(h, "spec %s\n", spec)
	for _, f := range files {
		fmt.Fprintf(h, "%s %s\n", f.SHA256, f.File)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildManifest computes the manifest of a generated corpus.
func BuildManifest(spec Spec, units []Unit) *Manifest {
	m := &Manifest{Version: ManifestVersion, Spec: spec.String(), Units: len(units)}
	for _, u := range units {
		e := entryFor(u)
		m.Routines += len(e.Routines)
		m.Files = append(m.Files, e)
	}
	m.SHA256 = corpusSHA(m.Spec, m.Files)
	return m
}

// WriteDir generates the corpus and writes it under dir: one .iloc
// file per unit plus MANIFEST.json. The directory is created if
// needed; existing files are overwritten (a corpus directory is a
// cache of the spec, not a source of truth).
func WriteDir(dir string, spec Spec) (*Manifest, error) {
	spec = spec.withDefaults()
	units, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	for _, u := range units {
		if err := os.WriteFile(filepath.Join(dir, u.Name+".iloc"), []byte(u.Text), 0o644); err != nil {
			return nil, fmt.Errorf("corpus: %v", err)
		}
	}
	m := BuildManifest(spec, units)
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(blob, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	return m, nil
}

// ReadManifest reads and sanity-checks a corpus directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("corpus: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("corpus: bad manifest in %s: %v", dir, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("corpus: manifest version %d in %s (want %d)", m.Version, dir, ManifestVersion)
	}
	if len(m.Files) != m.Units {
		return nil, fmt.Errorf("corpus: manifest in %s lists %d files for %d units", dir, len(m.Files), m.Units)
	}
	return &m, nil
}

// Load reads a written corpus back: every unit file, hash-verified
// against the manifest and parsed. A corpus whose bytes do not match
// its manifest — edited, truncated, or generated by different code —
// is refused, so replay results always attach to a precise corpus
// identity.
func Load(dir string) (*Manifest, []Unit, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	files := append([]FileEntry(nil), m.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].File < files[j].File })
	units := make([]Unit, 0, len(files))
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(dir, f.File))
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %v", err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
			return nil, nil, fmt.Errorf("corpus: %s/%s does not match its manifest hash (got %s, manifest %s)", dir, f.File, got, f.SHA256)
		}
		routines, err := iloc.ParseProgram(string(blob))
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s/%s: %v", dir, f.File, err)
		}
		units = append(units, Unit{
			Name:     strings.TrimSuffix(f.File, ".iloc"),
			Routines: routines,
			Text:     string(blob),
			SHA256:   f.SHA256,
		})
	}
	if got := corpusSHA(m.Spec, m.Files); got != m.SHA256 {
		return nil, nil, fmt.Errorf("corpus: %s: corpus hash mismatch (got %s, manifest %s)", dir, got, m.SHA256)
	}
	return m, units, nil
}
