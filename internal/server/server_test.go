package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// testSource reads the repository's standard single-routine workload.
func testSource(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/sumabs.iloc")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func programSource(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/program.iloc")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a JSON body and returns the status, headers and decoded-ish
// raw body.
func post(t *testing.T, url string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func decodeAllocate(t *testing.T, body []byte) AllocateResponse {
	t.Helper()
	var ar AllocateResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	return ar
}

func TestAllocateOK(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, hdr, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	if hdr.Get("X-Request-ID") == "" || ar.RequestID != hdr.Get("X-Request-ID") {
		t.Fatalf("request id: header %q body %q", hdr.Get("X-Request-ID"), ar.RequestID)
	}
	if len(ar.Results) != 1 || ar.Stats.Routines != 1 {
		t.Fatalf("results = %d, stats = %+v", len(ar.Results), ar.Stats)
	}
	u := ar.Results[0]
	if u.Name != "sumabs" || u.Error != "" || u.Code == "" {
		t.Fatalf("unit = %+v", u)
	}
	// The serving default runs the post-allocation checker; a 200 body
	// is verified code.
	if !u.Verified {
		t.Fatalf("default allocation not verified: %+v", u)
	}
	if u.Degraded || u.DegradeReason != "" {
		t.Fatalf("unexpected degradation: %+v", u)
	}
	if !strings.Contains(u.Code, "routine sumabs") {
		t.Fatalf("code does not look like ILOC:\n%s", u.Code)
	}
}

func TestAllocateMultiRoutineProgram(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: programSource(t)}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	if len(ar.Results) != 2 {
		t.Fatalf("want 2 routines, got %d", len(ar.Results))
	}
	for _, u := range ar.Results {
		if u.Error != "" || u.Code == "" || !u.Verified {
			t.Fatalf("unit = %+v", u)
		}
	}
}

func TestBatchWithPerUnitOptions(t *testing.T) {
	sink := &collectSink{}
	logger, err := audit.New(audit.Config{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	ts := newTestServer(t, Config{Audit: logger})
	src := testSource(t)
	noVerify := false
	req := BatchRequest{
		Units: []BatchUnit{
			{Name: "remat-side", ILOC: src},
			{Name: "chaitin-side", ILOC: src, Options: &OptionsRequest{Strategy: "chaitin", Regs: 8}},
			{Name: "unverified", ILOC: src, Options: &OptionsRequest{Verify: &noVerify}},
		},
	}
	// Only the unit that turned the checker off reads unverified, on
	// every surface that reports the verdict.
	checkVerified := func(where string, u UnitResponse) {
		t.Helper()
		if u.Error != "" || u.Code == "" || u.Verified != (u.Name != "unverified") {
			t.Fatalf("%s: unit = %+v", where, u)
		}
	}
	status, _, body := post(t, ts.URL+"/v1/batch", req, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	if len(ar.Results) != 3 {
		t.Fatalf("want 3 units, got %d", len(ar.Results))
	}
	for i, name := range []string{"remat-side", "chaitin-side", "unverified"} {
		if ar.Results[i].Name != name {
			t.Fatalf("unit %d name = %q, want %q", i, ar.Results[i].Name, name)
		}
		checkVerified("batch", ar.Results[i])
	}

	status, _, raw := post(t, ts.URL+"/v1/jobs", req, nil)
	if status != http.StatusOK {
		t.Fatalf("submit status = %d\n%s", status, raw)
	}
	jr := decodeJob(t, raw)
	pollJob(t, ts.URL, jr.JobID)
	streamed := streamResults(t, ts.URL, jr.JobID)
	if len(streamed) != 3 {
		t.Fatalf("streamed %d units, want 3", len(streamed))
	}
	for _, u := range streamed {
		checkVerified("job stream", u)
	}

	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := sink.records(t)
	if len(recs) != 6 {
		t.Fatalf("%d audit records, want 6 (3 sync + 3 async)", len(recs))
	}
	for _, r := range recs {
		if r.Verified != (r.Unit != "unverified") {
			t.Fatalf("audit record verdict: %+v", r)
		}
	}
}

func TestCacheHitAcrossRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := AllocateRequest{ILOC: testSource(t)}
	_, _, first := post(t, ts.URL+"/v1/allocate", req, nil)
	_, _, second := post(t, ts.URL+"/v1/allocate", req, nil)
	a, b := decodeAllocate(t, first), decodeAllocate(t, second)
	if a.Results[0].CacheHit {
		t.Fatal("first request hit a cold cache")
	}
	if !b.Results[0].CacheHit {
		t.Fatal("second identical request missed the shared cache")
	}
	if a.Results[0].Code != b.Results[0].Code {
		t.Fatal("cache hit returned different code")
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := testSource(t)
	cases := []struct {
		name string
		do   func() (int, http.Header, []byte)
	}{
		{"malformed json", func() (int, http.Header, []byte) {
			resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, resp.Header, b
		}},
		{"empty iloc", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate", AllocateRequest{}, nil)
		}},
		{"unparseable iloc", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: "not iloc at all"}, nil)
		}},
		{"unknown mode", func() (int, http.Header, []byte) {
			// "mode" is not an options field: the strategy spec says
			// which allocator runs.
			return post(t, ts.URL+"/v1/allocate",
				map[string]any{"iloc": src, "options": map[string]any{"mode": "chaitin"}}, nil)
		}},
		{"unknown split", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate",
				AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "remat:split=sideways"}}, nil)
		}},
		{"bad deadline header", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src},
				map[string]string{"X-Deadline-Ms": "soon"})
		}},
		// The header is a plain count of milliseconds: a unit suffix or
		// an exponent is malformed, not read up to its first non-digit.
		{"deadline with unit", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src},
				map[string]string{"X-Deadline-Ms": "5s"})
		}},
		{"deadline in exponent form", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src},
				map[string]string{"X-Deadline-Ms": "1e3"})
		}},
		{"empty batch", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/batch", BatchRequest{}, nil)
		}},
		{"bad unit options", func() (int, http.Header, []byte) {
			return post(t, ts.URL+"/v1/batch", BatchRequest{
				Units: []BatchUnit{{ILOC: src, Options: &OptionsRequest{Strategy: "bogus"}}},
			}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := tc.do()
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d\n%s", status, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body: %v\n%s", err, body)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/allocate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", resp.Header.Get("Allow"))
	}
}

func TestRequestIDClientSupplied(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, hdr, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)},
		map[string]string{"X-Request-ID": "trace-me-42"})
	if hdr.Get("X-Request-ID") != "trace-me-42" {
		t.Fatalf("header id = %q", hdr.Get("X-Request-ID"))
	}
	if ar := decodeAllocate(t, body); ar.RequestID != "trace-me-42" {
		t.Fatalf("body id = %q", ar.RequestID)
	}
}

// TestSheds429WhenSaturated pins the server's overload contract: with
// one slot and no queue headroom, a second request arriving while the
// first is mid-allocation is shed immediately with 429 + Retry-After —
// not queued indefinitely, not a 5xx.
func TestSheds429WhenSaturated(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: shed whenever the slot is busy
		Telemetry:   &telemetry.Sink{Metrics: reg},
	})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	core.PanicHook = func(routine, pass string) {
		if routine == "sumabs" && pass == "cfa" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	defer func() { core.PanicHook = nil }()

	src := testSource(t)
	firstDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src}, nil)
		firstDone <- status
	}()
	<-entered

	// The slot and the only queue token are held; this request must shed.
	status, hdr, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSec < 1 {
		t.Fatalf("shed body: %v\n%s", err, body)
	}

	close(release)
	if st := <-firstDone; st != http.StatusOK {
		t.Fatalf("first request status = %d", st)
	}
	if got := reg.Counter("server.shed").Value(); got != 1 {
		t.Fatalf("server.shed = %d, want 1", got)
	}
}

// TestDeadlineDegradesOverHTTP pins the serving deadline contract: a
// request whose X-Deadline-Ms budget expires mid-allocation still gets
// a 200 carrying the spill-everywhere degradation with reason
// "deadline", and the answer arrives promptly rather than hanging.
func TestDeadlineDegradesOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{})
	core.PanicHook = func(routine, pass string) {
		if pass == "build" {
			time.Sleep(40 * time.Millisecond)
		}
	}
	defer func() { core.PanicHook = nil }()

	start := time.Now()
	status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)},
		map[string]string{"X-Deadline-Ms": "10"})
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	ar := decodeAllocate(t, body)
	u := ar.Results[0]
	if u.Error != "" {
		t.Fatalf("deadline request errored instead of degrading: %s", u.Error)
	}
	if !u.Degraded || u.DegradeReason != core.DegradeReasonDeadline {
		t.Fatalf("degraded=%v reason=%q", u.Degraded, u.DegradeReason)
	}
	if u.Code == "" || !u.Verified {
		t.Fatalf("degraded allocation not usable: %+v", u)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
}

// A deadline-degraded result must not poison the shared cache: the same
// source with a generous budget afterwards gets the real allocation.
func TestDeadlineResultNotCached(t *testing.T) {
	cache := driver.NewCache(0)
	ts := newTestServer(t, Config{Store: store.NewTiered(cache, nil)})
	core.PanicHook = func(routine, pass string) {
		if pass == "build" {
			time.Sleep(40 * time.Millisecond)
		}
	}
	status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)},
		map[string]string{"X-Deadline-Ms": "10"})
	core.PanicHook = nil
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	if u := decodeAllocate(t, body).Results[0]; !u.Degraded {
		t.Fatalf("setup: expected degradation, got %+v", u)
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Fatalf("deadline-degraded result cached (%d entries)", n)
	}
	_, _, body2 := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if u := decodeAllocate(t, body2).Results[0]; u.Degraded || u.CacheHit {
		t.Fatalf("follow-up allocation: %+v", u)
	}
}

func TestStrictModeSurfacesErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	core.PanicHook = func(routine, pass string) {
		if pass == "build" {
			time.Sleep(40 * time.Millisecond)
		}
	}
	defer func() { core.PanicHook = nil }()
	status, _, body := post(t, ts.URL+"/v1/allocate",
		AllocateRequest{ILOC: testSource(t), Options: &OptionsRequest{Strict: true}},
		map[string]string{"X-Deadline-Ms": "10"})
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	u := decodeAllocate(t, body).Results[0]
	if u.Error == "" || u.Code != "" || u.Degraded {
		t.Fatalf("strict deadline unit = %+v", u)
	}
}

func TestOpsEndpoints(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if st, b := get("/healthz"); st != 200 || !strings.Contains(b, "ok") {
		t.Fatalf("healthz = %d %q", st, b)
	}
	if st, b := get("/readyz"); st != 200 || !strings.Contains(b, "ready") {
		t.Fatalf("readyz = %d %q", st, b)
	}
	srv.SetReady(false)
	if st, b := get("/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(b, "draining") {
		t.Fatalf("draining readyz = %d %q", st, b)
	}
	srv.SetReady(true)

	// One allocation, then the registry dump must mention the request.
	status, _, _ := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if status != 200 {
		t.Fatalf("allocate = %d", status)
	}
	if st, b := get("/metrics"); st != 200 || !strings.Contains(b, "server.requests 1") {
		t.Fatalf("metrics = %d\n%s", st, b)
	}
	if st, _ := get("/debug/vars"); st != 200 {
		t.Fatalf("debug/vars = %d", st)
	}
	if st, b := get("/debug/pprof/"); st != 200 || !strings.Contains(b, "profile") {
		t.Fatalf("pprof index = %d", st)
	}
}

// TestPanicIsolation drives the instrumentation wrapper directly with a
// panicking handler: the request answers 500, the panic counter ticks,
// and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Telemetry: &telemetry.Sink{Metrics: reg}})
	h := srv.shell.Wrap("/boom", func(http.ResponseWriter, *http.Request, *RequestInfo) {
		panic("handler bug")
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "handler bug") {
		t.Fatalf("body = %s", body)
	}
	if got := reg.Counter("server.panics").Value(); got != 1 {
		t.Fatalf("server.panics = %d", got)
	}
	// Still alive.
	resp2, err := http.Post(ts.URL, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}

// TestConcurrentRequests hammers a small server from many goroutines;
// under -race this exercises the admission channels, the shared cache
// and the shared registry. Every answer must be 200 or 429.
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	src := testSource(t)
	prog := programSource(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := AllocateRequest{ILOC: src}
			if i%3 == 0 {
				body.ILOC = prog
			}
			status, _, b := post(t, ts.URL+"/v1/allocate", body, nil)
			switch status {
			case http.StatusOK:
				for _, u := range decodeAllocate(t, b).Results {
					if u.Error != "" || !u.Verified {
						errs <- fmt.Errorf("bad unit under load: %+v", u)
						return
					}
				}
			case http.StatusTooManyRequests:
				// shed is a correct answer under load
			default:
				errs <- fmt.Errorf("status %d under load: %s", status, b)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOptionsMergeOverDefaults(t *testing.T) {
	// Server-level defaults (chaitin, 8 regs) apply when the request
	// carries nothing, and request options win when present.
	cfg := Config{
		Options: core.Options{Machine: target.WithRegs(8), Strategy: "chaitin", Verify: true},
	}
	ts := newTestServer(t, cfg)
	src := testSource(t)
	status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: src}, nil)
	if status != 200 {
		t.Fatalf("status = %d\n%s", status, body)
	}
	if u := decodeAllocate(t, body).Results[0]; u.Error != "" || !u.Verified {
		t.Fatalf("unit = %+v", u)
	}
	status, _, body = post(t, ts.URL+"/v1/allocate",
		AllocateRequest{ILOC: src, Options: &OptionsRequest{Strategy: "remat:split=all-loops", Regs: 6}}, nil)
	if status != 200 {
		t.Fatalf("status = %d\n%s", status, body)
	}
	if u := decodeAllocate(t, body).Results[0]; u.Error != "" || !u.Verified {
		t.Fatalf("unit = %+v", u)
	}
}

func TestBackendHeaderStampedEverywhere(t *testing.T) {
	ts := newTestServer(t, Config{InstanceID: "unit-test-7"})
	// Allocation responses carry the instance both as the header and
	// per-unit in the body, so proxied batches stay attributable.
	status, hdr, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	if got := hdr.Get(BackendHeader); got != "unit-test-7" {
		t.Fatalf("%s = %q, want unit-test-7", BackendHeader, got)
	}
	if ar := decodeAllocate(t, body); ar.Results[0].Backend != "unit-test-7" {
		t.Fatalf("unit backend = %q, want unit-test-7", ar.Results[0].Backend)
	}
	// Every response — health, errors — carries the header too.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(BackendHeader); got != "unit-test-7" {
		t.Fatalf("healthz %s = %q", BackendHeader, got)
	}
}

func TestInstanceIDDefaultDerived(t *testing.T) {
	s := New(Config{})
	if s.InstanceID() == "" {
		t.Fatal("default instance ID empty")
	}
}
