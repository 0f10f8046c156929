package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestBundleEndpointRoundTrip proves warm replication over HTTP: a
// populated daemon's GET /v1/cache/bundle, imported into a second
// daemon's store, serves the same request as a disk-tier cache hit
// with byte-identical code — before the second daemon ever allocates.
func TestBundleEndpointRoundTrip(t *testing.T) {
	first, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	ts := newTestServer(t, Config{Store: first})

	status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if status != http.StatusOK {
		t.Fatalf("populate: status %d\n%s", status, body)
	}
	cold := decodeAllocate(t, body)
	if cold.Results[0].CacheHit {
		t.Fatal("first allocation was already a hit")
	}

	resp, err := http.Get(ts.URL + "/v1/cache/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("bundle content type %q", ct)
	}
	bundle, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.InspectBundle(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Valid {
		t.Fatalf("bundle entries: %+v", entries)
	}

	second, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if st, err := second.ImportBundle(bytes.NewReader(bundle)); err != nil || st.Imported != 1 {
		t.Fatalf("import: %+v, %v", st, err)
	}
	ts2 := newTestServer(t, Config{Store: second})
	status, _, body = post(t, ts2.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d\n%s", status, body)
	}
	warm := decodeAllocate(t, body)
	u := warm.Results[0]
	if !u.CacheHit || u.CacheTier != store.TierDisk {
		t.Fatalf("warm unit: hit=%v tier=%q, want a disk-tier hit", u.CacheHit, u.CacheTier)
	}
	if warm.Stats.CacheDiskHits != 1 {
		t.Fatalf("warm stats: %+v", warm.Stats)
	}
	if u.Code != cold.Results[0].Code {
		t.Fatal("warm response code differs from the cold allocation")
	}
}

// TestBundleEndpointWithoutStore: a memory-only daemon answers 404, and
// non-GET methods 405.
func TestBundleEndpointWithoutStore(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/cache/bundle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/cache/bundle", "application/gzip", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsCarryStoreTiers: /metrics exposes per-tier store.* gauges,
// refreshed at scrape time, for both the tiered store and the plain
// in-memory cache.
func TestMetricsCarryStoreTiers(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Config{Store: st})

	if status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil); status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"store.l1.misses 1",
		"store.l2.misses 1",
		"store.l1.entries 1",
		"store.quarantined 0",
	} {
		if !strings.Contains(string(text), want+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
