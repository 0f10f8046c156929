package store

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/suite"
	"repro/internal/target"
)

// allocateKernel runs one real allocation of a suite kernel — the
// store's tests exercise genuine results, not synthetic stand-ins.
func allocateKernel(t testing.TB, name string) (*core.Result, driver.Key, string) {
	t.Helper()
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat"}
	rt := suite.ByName(name).Routine()
	res, err := core.Allocate(context.Background(), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, driver.KeyFor(suite.ByName(name).Routine(), opts), driver.CanonicalOptionsKey(opts)
}

// TestEntryRoundTrip: encode → decode reproduces the result exactly,
// including everything the printed code does not carry.
func TestEntryRoundTrip(t *testing.T) {
	res, _, optKey := allocateKernel(t, "fehl")
	data, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.OptionsKey != optKey {
		t.Fatalf("options key %q, want %q", e.OptionsKey, optKey)
	}
	got, err := e.result()
	if err != nil {
		t.Fatal(err)
	}
	if iloc.Print(got.Routine) != iloc.Print(res.Routine) {
		t.Fatal("round-tripped code differs from the original")
	}
	if got.Routine.Allocated != res.Routine.Allocated ||
		got.Routine.FrameWords != res.Routine.FrameWords ||
		got.Routine.CallerSave != res.Routine.CallerSave ||
		got.Routine.NextReg != res.Routine.NextReg {
		t.Fatal("print-invisible routine fields not restored")
	}
	if got.SpilledRanges != res.SpilledRanges || got.RematSpills != res.RematSpills ||
		got.Strategy != res.Strategy ||
		len(got.Iterations) != len(res.Iterations) {
		t.Fatalf("result fields differ: got %+v", got)
	}
}

// TestEntryWithOldTimesDecodes: entries written before pass timing
// moved to PassStat alone carry a per-iteration "Times" object in their
// meta JSON, and entries written before entries dropped wall times a
// "Time" in every pass. Such an entry (an old -cache-dir tree or
// bundle) must still decode, serve byte-identical code and keep every
// pass count.
func TestEntryWithOldTimesDecodes(t *testing.T) {
	res, _, optKey := allocateKernel(t, "fehl")
	data, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(e.Meta)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(meta), `{"Spilled":`,
		`{"Times":{"CFA":1200,"Renumber":3400,"Build":5600,"Costs":700,"Color":800,"Spill":900},"Spilled":`)
	if n := strings.Count(old, `"Times"`); n != len(res.Iterations) || n == 0 {
		t.Fatalf("injected %d Times objects for %d iterations", n, len(res.Iterations))
	}
	old = strings.ReplaceAll(old, `"Nodes":`, `"Time":13427,"Nodes":`)
	e, err = decodeEntry(frameEntry([]byte(optKey), []byte(old), e.Code))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.result()
	if err != nil {
		t.Fatal(err)
	}
	if iloc.Print(got.Routine) != iloc.Print(res.Routine) {
		t.Fatal("old-format entry serves different code")
	}
	want := res.Iterations[0].Passes[0]
	want.Time = 13427
	if got.Routine.FrameWords != res.Routine.FrameWords || len(got.Iterations) != len(res.Iterations) ||
		got.Iterations[0].Passes[0] != want {
		t.Fatalf("old-format entry lost result fields: got %+v", got)
	}
}

// TestColdEntriesByteIdentical: two independent cold allocations of one
// routine write the same entry bytes, so replicas that computed the
// same result export identical bundles. Pass wall times differ between
// the two runs; entries keep only the counts.
func TestColdEntriesByteIdentical(t *testing.T) {
	first, _, optKey := allocateKernel(t, "fehl")
	second, _, _ := allocateKernel(t, "fehl")
	a, err := encodeResult(first, optKey)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeResult(second, optKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two cold allocations encode differently:\n%s\n%s", a, b)
	}
	e, err := decodeEntry(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.result()
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range first.Iterations {
		for j, ps := range it.Passes {
			ps.Time = 0
			if got.Iterations[i].Passes[j] != ps {
				t.Fatalf("iteration %d pass %d: got %+v, want %+v", i, j, got.Iterations[i].Passes[j], ps)
			}
		}
	}
}

// TestTieredPromotion: an L1 miss over a populated disk serves from
// "l2" and promotes, so the next lookup is an "l1" hit.
func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	res, key, optKey := allocateKernel(t, "fehl")

	first, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first.PutOptions(key, res, optKey)
	first.Flush()

	// Fresh L1 over the same disk: the entry is only on disk now.
	fresh := NewTiered(driver.NewCache(0), first.Disk())
	got, tier, ok := fresh.GetTier(key)
	if !ok || tier != TierDisk {
		t.Fatalf("first lookup: ok=%v tier=%q, want l2 hit", ok, tier)
	}
	if iloc.Print(got.Routine) != iloc.Print(res.Routine) {
		t.Fatal("disk hit returned different code")
	}
	if _, tier, ok = fresh.GetTier(key); !ok || tier != TierMemory {
		t.Fatalf("second lookup: ok=%v tier=%q, want promoted l1 hit", ok, tier)
	}
	st := fresh.Stats()
	if st.L1.Hits != 1 || st.L2.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	first.Close()
}

// TestRestartSurvival: entries put before Close are served after a
// reopen of the same directory, byte-identical.
func TestRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	res, key, optKey := allocateKernel(t, "sgemm")
	want := iloc.Print(res.Routine)

	first, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first.PutOptions(key, res, optKey)
	first.Close() // flushes write-behind

	second, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if n := second.Disk().Stats().Entries; n != 1 {
		t.Fatalf("reopened tier counts %d entries, want 1", n)
	}
	got, tier, ok := second.GetTier(key)
	if !ok || tier != TierDisk {
		t.Fatalf("after restart: ok=%v tier=%q", ok, tier)
	}
	if iloc.Print(got.Routine) != want {
		t.Fatal("restart changed the served bytes")
	}
}

// TestCorruptionQuarantined: every corruption mode is detected on read,
// reported as a miss, moved to quarantine, and re-fillable by the next
// Put. Nothing corrupt is ever served.
func TestCorruptionQuarantined(t *testing.T) {
	res, key, optKey := allocateKernel(t, "fehl")
	good, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerSize+len(c[headerSize:])/2] ^= 0x01
			return c
		}},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOTSTORE")
			return c
		}},
		{"wrong-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] = 99
			return c
		}},
		{"trailing-garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xde, 0xad) }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.write(key, good)
			path := d.entryPath(key)
			if err := os.WriteFile(path, tc.mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := d.Get(key); ok {
				t.Fatal("corrupt entry was served")
			}
			if q := d.Quarantined(); q != 1 {
				t.Fatalf("quarantined = %d, want 1", q)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry still in the objects tree")
			}
			if _, err := os.Stat(filepath.Join(d.Dir(), "quarantine", string(key))); err != nil {
				t.Fatalf("quarantine copy missing: %v", err)
			}

			// The slot re-fills on the next write and serves again.
			d.write(key, good)
			if _, ok := d.Get(key); !ok {
				t.Fatal("re-filled entry not served")
			}
		})
	}
}

// TestRenameFaultLeavesNoPartial: a failed rename (the crash window of
// the atomic write) must leave neither a readable entry nor a stranded
// temp file.
func TestRenameFaultLeavesNoPartial(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res, key, optKey := allocateKernel(t, "fehl")
	snap := core.NewSnapshot(res)

	d.renameFn = func(string, string) error { return os.ErrPermission }
	d.put(key, snap, optKey)
	d.Flush()
	if _, ok := d.Get(key); ok {
		t.Fatal("entry readable despite failed rename")
	}
	if d.flushErrors.Load() == 0 {
		t.Fatal("failed rename not counted")
	}
	tmps, err := os.ReadDir(filepath.Join(d.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("%d temp file(s) left behind", len(tmps))
	}

	// Healed: the same Put path works once renames succeed again.
	d.renameFn = os.Rename
	d.put(key, snap, optKey)
	d.Flush()
	if _, ok := d.Get(key); !ok {
		t.Fatal("entry not served after rename recovered")
	}
}

// TestConcurrentAccess drives Get/Put/Flush from many goroutines; run
// under -race it is the store's data-race check.
func TestConcurrentAccess(t *testing.T) {
	tiered, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	res, key, optKey := allocateKernel(t, "fehl")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 3 {
				case 0:
					tiered.PutOptions(key, res, optKey)
				case 1:
					got, ok := tiered.Get(key)
					if ok && got.Routine == nil {
						t.Error("hit without a routine")
					} else if ok {
						// Hits are the caller's own: writing one races
						// with nothing another goroutine reads.
						got.Routine.Blocks[0].Instrs[0].Imm = int64(g)
						got.Iterations[0].Passes[0].Nodes = g
					}
				default:
					tiered.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, ok := tiered.Get(key); !ok || iloc.Print(got.Routine) != iloc.Print(res.Routine) {
		t.Fatal("entry wrong after concurrent traffic")
	}
}

// TestEngineServesDiskTier wires the tiered store into the batch driver
// end to end: a fresh L1 over a populated disk serves the whole batch
// from "l2", and the driver's stats count the disk hits.
func TestEngineServesDiskTier(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Machine: target.WithRegs(6)}
	units := []driver.Unit{
		{Name: "fehl", Routine: suite.ByName("fehl").Routine()},
		{Name: "sgemm", Routine: suite.ByName("sgemm").Routine()},
	}

	warm, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := driver.New(driver.Config{Options: opts, Cache: warm}).Run(context.Background(), units)
	if err := cold.FirstErr(); err != nil {
		t.Fatal(err)
	}
	warm.Flush()

	fresh := NewTiered(driver.NewCache(0), warm.Disk())
	b := driver.New(driver.Config{Options: opts, Cache: fresh}).Run(context.Background(), units)
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.CacheHits != len(units) || b.Stats.CacheDiskHits != len(units) {
		t.Fatalf("stats: %+v", b.Stats)
	}
	for i, r := range b.Results {
		if !r.CacheHit || r.CacheTier != TierDisk {
			t.Fatalf("unit %d: hit=%v tier=%q", i, r.CacheHit, r.CacheTier)
		}
		if iloc.Print(r.Result.Routine) != iloc.Print(cold.Results[i].Result.Routine) {
			t.Fatalf("unit %d: disk-served code differs from cold allocation", i)
		}
	}
	warm.Close()
}

// TestBundleRoundTrip: export → inspect → import into a fresh tier
// reproduces every entry byte-identically, and the export is
// deterministic.
func TestBundleRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	type put struct {
		key  driver.Key
		code string
	}
	var puts []put
	for _, name := range []string{"fehl", "sgemm"} {
		res, key, optKey := allocateKernel(t, name)
		src.PutOptions(key, res, optKey)
		puts = append(puts, put{key, iloc.Print(res.Routine)})
	}

	var buf bytes.Buffer
	n, err := src.ExportBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(puts) {
		t.Fatalf("exported %d entries, want %d", n, len(puts))
	}
	var buf2 bytes.Buffer
	if _, err := src.ExportBundle(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("same tier state produced different bundle bytes")
	}

	entries, err := InspectBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(puts) {
		t.Fatalf("inspect lists %d entries, want %d", len(entries), len(puts))
	}
	for _, e := range entries {
		if !e.Valid || e.Name == "" || e.OptionsKey == "" {
			t.Fatalf("inspect entry: %+v", e)
		}
	}

	dst, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	st, err := dst.ImportBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != len(puts) || st.Skipped != 0 || st.Replaced != 0 {
		t.Fatalf("import stats: %+v", st)
	}
	for _, p := range puts {
		got, tier, ok := dst.GetTier(p.key)
		if !ok || tier != TierDisk {
			t.Fatalf("%s: ok=%v tier=%q after import", p.key, ok, tier)
		}
		if iloc.Print(got.Routine) != p.code {
			t.Fatalf("%s: imported entry served different code", p.key)
		}
	}

	// Re-import over the same tier replaces, never duplicates.
	st, err = dst.ImportBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != len(puts) || st.Replaced != len(puts) {
		t.Fatalf("re-import stats: %+v", st)
	}
}

// TestBundleHostileMembers: corrupt members are skipped, traversal and
// non-entry names ignored — and a valid member alongside them still
// installs.
func TestBundleHostileMembers(t *testing.T) {
	res, key, optKey := allocateKernel(t, "fehl")
	good, err := encodeResult(res, optKey)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	otherKey := driver.KeyFor(suite.ByName("sgemm").Routine(), core.Options{Machine: target.WithRegs(6), Strategy: "remat"})

	bundle := buildBundle(t, []bundleMember{
		{name: "objects/" + string(key[:2]) + "/" + string(key), data: good},
		{name: "objects/" + string(otherKey[:2]) + "/" + string(otherKey), data: corrupt},
		{name: "objects/../../../etc/passwd", data: good},
		{name: "README.txt", data: []byte("not an entry")},
	})

	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := d.ImportBundle(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 1 || st.Skipped != 1 || st.Ignored != 2 {
		t.Fatalf("import stats: %+v", st)
	}
	if _, ok := d.Get(key); !ok {
		t.Fatal("valid member not installed")
	}
	if _, ok := d.Get(otherKey); ok {
		t.Fatal("corrupt member was installed")
	}
	// Nothing escaped the store directory.
	if _, err := os.Stat(filepath.Join(d.Dir(), "..", "etc", "passwd")); !os.IsNotExist(err) {
		t.Fatal("traversal member landed outside the store")
	}
}

// TestWarmFrom covers both -warm-from source kinds: a local file and an
// HTTP URL (a peer's bundle endpoint).
func TestWarmFrom(t *testing.T) {
	src, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, key, optKey := allocateKernel(t, "fehl")
	src.PutOptions(key, res, optKey)
	var buf bytes.Buffer
	if _, err := src.ExportBundle(&buf); err != nil {
		t.Fatal(err)
	}

	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bundle.tar.gz")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st, err := d.WarmFrom(path)
		if err != nil || st.Imported != 1 {
			t.Fatalf("warm from file: %+v, %v", st, err)
		}
		if _, ok := d.Get(key); !ok {
			t.Fatal("warmed entry not served")
		}
	})

	t.Run("url", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(buf.Bytes())
		}))
		defer ts.Close()
		d, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st, err := d.WarmFrom(ts.URL)
		if err != nil || st.Imported != 1 {
			t.Fatalf("warm from url: %+v, %v", st, err)
		}
		if _, ok := d.Get(key); !ok {
			t.Fatal("warmed entry not served")
		}
	})

	t.Run("missing", func(t *testing.T) {
		d, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.WarmFrom(filepath.Join(t.TempDir(), "nope.tar.gz")); err == nil {
			t.Fatal("missing bundle did not error")
		}
	})
}

// bundleMember is one crafted member of a test bundle.
type bundleMember struct {
	name string
	data []byte
}

// buildBundle writes a tar.gz with exactly the given members — the
// hostile-input counterpart of ExportBundle.
func buildBundle(t testing.TB, members []bundleMember) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, m := range members {
		if err := tw.WriteHeader(&tar.Header{Name: m.name, Mode: 0o644, Size: int64(len(m.data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(m.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNilTieredIsInert: a nil store behaves like no cache, matching the
// nil *driver.Cache contract.
func TestNilTieredIsInert(t *testing.T) {
	var nt *Tiered
	if _, ok := nt.Get("k"); ok {
		t.Fatal("nil store returned a value")
	}
	nt.Put("k", &core.Result{})
	nt.Flush()
	nt.Close()
	if nt.Stats() != (Stats{}) {
		t.Fatal("nil store has stats")
	}
	if _, err := nt.ExportBundle(&bytes.Buffer{}); err == nil {
		t.Fatal("nil store exported a bundle")
	}
}
