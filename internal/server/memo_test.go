package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/machines"
	"repro/internal/store"
)

// memoServer boots a server whose memo the test can inspect.
func memoServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postRaw posts body bytes as they are and returns the status and the
// response body.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// mustMarshal renders v as a request body.
func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameUnits fails unless two responses answer the same units with the
// same code, byte for byte.
func sameUnits(t *testing.T, first, second AllocateResponse) {
	t.Helper()
	if len(first.Results) != len(second.Results) {
		t.Fatalf("repeat answered %d units, first %d", len(second.Results), len(first.Results))
	}
	for i, a := range first.Results {
		b := second.Results[i]
		if a.Error != "" || a.Code == "" {
			t.Fatalf("unit %d: %+v", i, a)
		}
		if a.Name != b.Name || a.Code != b.Code || a.Verified != b.Verified || a.Spilled != b.Spilled || a.FrameWords != b.FrameWords {
			t.Fatalf("unit %d differs on the repeat:\n--- first ---\n%+v\n--- repeat ---\n%+v", i, a, b)
		}
	}
}

// TestMemoRepeatBodyIdentical: a repeated body, on either endpoint, is
// answered from the memo with the first answer's units, code byte for
// byte, and the memo holds one entry per distinct body.
func TestMemoRepeatBodyIdentical(t *testing.T) {
	srv, ts := memoServer(t, Config{})
	bodies := []struct {
		path string
		body []byte
	}{
		{"/v1/allocate", mustMarshal(t, AllocateRequest{ILOC: programSource(t)})},
		{"/v1/batch", mustMarshal(t, BatchRequest{Units: []BatchUnit{
			{Name: "a", ILOC: testSource(t)},
			{ILOC: testSource(t), Options: &OptionsRequest{Strategy: "chaitin", Regs: 6}},
		}})},
	}
	for n, b := range bodies {
		status, raw := postRaw(t, ts.URL+b.path, b.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", b.path, status, raw)
		}
		first := decodeAllocate(t, raw)
		if got := srv.memo.Len(); got != n+1 {
			t.Fatalf("after %s the memo holds %d bodies, want %d", b.path, got, n+1)
		}
		status, raw = postRaw(t, ts.URL+b.path, b.body)
		if status != http.StatusOK {
			t.Fatalf("%s repeat: status %d\n%s", b.path, status, raw)
		}
		second := decodeAllocate(t, raw)
		sameUnits(t, first, second)
		for i, u := range second.Results {
			if !u.CacheHit {
				t.Fatalf("%s repeat: unit %d missed the cache", b.path, i)
			}
		}
		if got := srv.memo.Len(); got != n+1 {
			t.Fatalf("a repeat of %s added a memo entry: %d", b.path, got)
		}
	}
}

// TestMemoKindSeparatesEndpoints: the same bytes on another endpoint are
// another body. An allocate body posted to /v1/batch or /v1/jobs is a
// 400 even after /v1/allocate remembered it, and the other way round.
func TestMemoKindSeparatesEndpoints(t *testing.T) {
	srv, ts := memoServer(t, Config{})
	alloc := mustMarshal(t, AllocateRequest{ILOC: testSource(t)})
	batch := mustMarshal(t, BatchRequest{Units: []BatchUnit{{ILOC: testSource(t)}}})
	for _, c := range []struct {
		body     []byte
		ok, bad  []string
		wantsErr string
	}{
		{alloc, []string{"/v1/allocate"}, []string{"/v1/batch", "/v1/jobs"}, `unknown field "iloc"`},
		{batch, []string{"/v1/batch"}, []string{"/v1/allocate"}, `unknown field "units"`},
	} {
		for _, path := range c.ok {
			if status, raw := postRaw(t, ts.URL+path, c.body); status != http.StatusOK {
				t.Fatalf("%s: status %d\n%s", path, status, raw)
			}
		}
		for _, path := range c.bad {
			status, raw := postRaw(t, ts.URL+path, c.body)
			var er ErrorResponse
			_ = json.Unmarshal(raw, &er)
			if status != http.StatusBadRequest || !strings.Contains(er.Error, c.wantsErr) {
				t.Fatalf("%s with another endpoint's body: status %d, want 400 naming %s\n%s", path, status, c.wantsErr, raw)
			}
		}
	}
	if got := srv.memo.Len(); got != 2 {
		t.Fatalf("memo holds %d bodies, want 2", got)
	}
}

// TestMemoNeverStoresBadBodies: a body answered 400 is answered 400,
// with the same error, every time, and never enters the memo. A body
// over the size limit is still refused with the message it always had.
func TestMemoNeverStoresBadBodies(t *testing.T) {
	src := testSource(t)
	srv, ts := memoServer(t, Config{})
	huge := mustMarshal(t, AllocateRequest{ILOC: src + strings.Repeat("\n", MaxBodyBytes)})
	cases := []struct {
		path string
		body []byte
		want string // a substring of the error; empty skips the check
	}{
		{"/v1/allocate", []byte("{"), ""},
		{"/v1/allocate", mustMarshal(t, AllocateRequest{}), "empty iloc source"},
		{"/v1/allocate", mustMarshal(t, AllocateRequest{ILOC: "not iloc at all"}), "parse"},
		{"/v1/allocate", mustMarshal(t, AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "remat:split=sideways"}}), ""},
		{"/v1/batch", mustMarshal(t, BatchRequest{}), "empty batch"},
		{"/v1/batch", mustMarshal(t, BatchRequest{Units: []BatchUnit{{ILOC: src, Options: &OptionsRequest{Strategy: "bogus"}}}}), "bogus"},
		{"/v1/jobs", mustMarshal(t, BatchRequest{Units: []BatchUnit{{ILOC: "routine"}}}), "unit 0: parse"},
		{"/v1/allocate", huge, ""},
	}
	for _, c := range cases {
		var first ErrorResponse
		for try := 0; try < 2; try++ {
			status, raw := postRaw(t, ts.URL+c.path, c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s %.40q try %d: status %d, want 400\n%s", c.path, c.body, try, status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Fatalf("error body: %v\n%s", err, raw)
			}
			if try == 0 {
				first = er
			} else if er.Error != first.Error {
				t.Fatalf("%s: the repeat says %q, the first %q", c.path, er.Error, first.Error)
			}
			if !strings.Contains(er.Error, c.want) {
				t.Fatalf("%s: error %q does not say %q", c.path, er.Error, c.want)
			}
		}
	}
	status, raw := postRaw(t, ts.URL+"/v1/allocate", huge)
	var er ErrorResponse
	_ = json.Unmarshal(raw, &er)
	if want := "bad request body: http: request body too large"; status != http.StatusBadRequest || er.Error != want {
		t.Fatalf("oversized body: status %d error %q, want 400 %q", status, er.Error, want)
	}
	if got := srv.memo.Len(); got != 0 {
		t.Fatalf("memo holds %d bodies after only bad requests", got)
	}
}

// TestMemoHitReparsesEvicted: a remembered body whose results left the
// cache decodes again on its units' miss, and each unit allocates its
// own routine: the code matches the first answer byte for byte.
func TestMemoHitReparsesEvicted(t *testing.T) {
	srv, ts := memoServer(t, Config{Store: store.NewTiered(driver.NewCache(1), nil)})
	prog := mustMarshal(t, AllocateRequest{ILOC: programSource(t)})
	status, raw := postRaw(t, ts.URL+"/v1/allocate", prog)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	first := decodeAllocate(t, raw)
	if len(first.Results) < 2 {
		t.Fatalf("program has %d routines; the test needs several", len(first.Results))
	}
	// Another routine takes the cache's only slot.
	if status, raw := postRaw(t, ts.URL+"/v1/allocate", mustMarshal(t, AllocateRequest{ILOC: testSource(t)})); status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	status, raw = postRaw(t, ts.URL+"/v1/allocate", prog)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	second := decodeAllocate(t, raw)
	for i, u := range second.Results {
		if u.CacheHit {
			t.Fatalf("unit %d hit a cache that holds one other routine", i)
		}
	}
	sameUnits(t, first, second)
	if got := srv.memo.Len(); got != 2 {
		t.Fatalf("memo holds %d bodies, want 2", got)
	}
}

// TestMemoCap: the memo never holds more than memoCap bodies and
// forgets the oldest first.
func TestMemoCap(t *testing.T) {
	m := NewMemo(DefaultOptions())
	body := func(i int) []byte {
		return mustMarshal(t, AllocateRequest{ILOC: fmt.Sprintf("routine r%d(r1)\nentry:\n getparam r1, 0\n retr r1\n", i)})
	}
	for i := 0; i < memoCap+10; i++ {
		units, fill, err := m.Units(KindAllocate, body(i))
		if err != nil || fill == nil {
			t.Fatalf("body %d: new body answered as remembered (err %v)", i, err)
		}
		results := make([]driver.UnitResult, len(units))
		for j, u := range units {
			results[j].Key = driver.KeyFor(u.Routine, *u.Options)
		}
		fill(results)
		if want := min(i+1, memoCap); m.Len() != want {
			t.Fatalf("after %d bodies the memo holds %d, want %d", i+1, m.Len(), want)
		}
	}
	if _, fill, _ := m.Units(KindAllocate, body(0)); fill == nil {
		t.Fatal("the oldest body is still remembered past the cap")
	}
	if _, fill, _ := m.Units(KindAllocate, body(memoCap+9)); fill != nil {
		t.Fatal("the newest body was forgotten")
	}
}

// TestMemoConcurrentIdenticalBodies posts one body from many goroutines,
// first cold, then remembered; under -race this exercises the memo, the
// shared lazy decode and the shared options. Every answer carries the
// same code.
func TestMemoConcurrentIdenticalBodies(t *testing.T) {
	srv, ts := memoServer(t, Config{Store: store.NewTiered(driver.NewCache(1), nil), MaxQueue: 64})
	body := mustMarshal(t, AllocateRequest{ILOC: programSource(t)})
	evict := mustMarshal(t, AllocateRequest{ILOC: testSource(t)})
	var (
		mu    sync.Mutex
		codes = make(map[string]int)
	)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := body
				if g%4 == 3 {
					b = evict // keeps the lazy re-decode path busy
				}
				resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var ar AllocateResponse
				if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, body: %v", resp.StatusCode, err)
					return
				}
				if g%4 == 3 {
					return
				}
				var all strings.Builder
				for _, u := range ar.Results {
					all.WriteString(u.Code)
				}
				mu.Lock()
				codes[all.String()]++
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	if len(codes) != 1 {
		t.Fatalf("one body answered with %d different codes", len(codes))
	}
	if got := srv.memo.Len(); got != 2 {
		t.Fatalf("memo holds %d bodies, want 2", got)
	}
}

// BenchmarkServeWarmRequest times the backend's whole handler on a warm
// request: the serve-warm bodies (corpus count=256,seed=3 on x86-64),
// each served once before timing, so every unit is a cache hit.
func BenchmarkServeWarmRequest(b *testing.B) {
	spec, err := corpus.ParseSpec("count=256,seed=3")
	if err != nil {
		b.Fatal(err)
	}
	units, err := corpus.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	if opts.Machine, err = machines.Lookup("x86-64"); err != nil {
		b.Fatal(err)
	}
	h := New(Config{Options: opts, InstanceID: "bench"}).Handler()
	bodies := make([][]byte, len(units))
	for i, u := range units {
		bodies[i] = mustMarshal(b, AllocateRequest{ILOC: u.Text})
	}
	serve := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/allocate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d\n%s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
