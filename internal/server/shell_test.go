package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestMintedIDsUniqueAcrossInstances: two servers hit directly, with no
// client X-Request-ID, never mint the same ID — not even for their
// first requests, which share a sequence number.
func TestMintedIDsUniqueAcrossInstances(t *testing.T) {
	a := newTestServer(t, Config{InstanceID: "a"})
	b := newTestServer(t, Config{InstanceID: "b"})
	seen := make(map[string]string)
	for round := 0; round < 3; round++ {
		for _, ts := range []*httptest.Server{a, b} {
			status, hdr, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil)
			if status != http.StatusOK {
				t.Fatalf("status %d\n%s", status, body)
			}
			id := hdr.Get("X-Request-ID")
			if id == "" || decodeAllocate(t, body).RequestID != id {
				t.Fatalf("header id %q, body id %q", id, decodeAllocate(t, body).RequestID)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("id %q minted by %s and again by %s", id, prev, ts.URL)
			}
			seen[id] = ts.URL
		}
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestShellAccounting: the shell is the only writer of a hop's request
// counters. Whatever the handler answers — 200, its own 400, a 405 from
// the method gate, or a panic turned into a 500 — requests equals the
// sum of the status classes, and every answer carries the request ID.
func TestShellAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	sh := NewShell("proxy", &telemetry.Sink{Metrics: reg})
	ts := httptest.NewServer(sh.Wrap("proxy/test", func(w http.ResponseWriter, r *http.Request, info *RequestInfo) {
		switch r.URL.Query().Get("answer") {
		case "panic":
			panic("handler bug")
		case "bad":
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad", RequestID: info.ID})
		default:
			WriteJSON(w, http.StatusOK, ErrorResponse{RequestID: info.ID})
		}
	}))
	defer ts.Close()

	for _, c := range []struct {
		method, answer string
		want           int
	}{
		{http.MethodPost, "ok", http.StatusOK},
		{http.MethodPost, "bad", http.StatusBadRequest},
		{http.MethodGet, "ok", http.StatusMethodNotAllowed},
		{http.MethodPost, "panic", http.StatusInternalServerError},
		{http.MethodPost, "ok", http.StatusOK},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+"?answer="+c.answer, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		decodeErr := jsonDecode(resp, &er)
		if resp.StatusCode != c.want || decodeErr != nil || er.RequestID == "" || er.RequestID != resp.Header.Get("X-Request-ID") {
			t.Fatalf("%s %s: status %d (want %d), body id %q, header id %q, decode %v",
				c.method, c.answer, resp.StatusCode, c.want, er.RequestID, resp.Header.Get("X-Request-ID"), decodeErr)
		}
	}
	var sum int64
	for class := 1; class <= 5; class++ {
		sum += reg.Counter(fmt.Sprintf("proxy.status.%dxx", class)).Value()
	}
	if got := reg.Counter("proxy.requests").Value(); got != 5 || sum != got {
		t.Fatalf("proxy.requests = %d, status sum = %d, want 5 and 5", got, sum)
	}
	if got := reg.Counter("proxy.panics").Value(); got != 1 {
		t.Fatalf("proxy.panics = %d, want 1", got)
	}
	if got := reg.Histogram("proxy.request.wall").Snapshot().Count; got != 5 {
		t.Fatalf("proxy.request.wall observed %d requests, want 5", got)
	}
}

// TestMetricsNamesHaveOneOwner: a daemon with an audit stream and a disk
// store, after a sync request and a job, prints every metric name on
// /metrics exactly once.
func TestMetricsNamesHaveOneOwner(t *testing.T) {
	tel := &telemetry.Sink{Metrics: telemetry.NewRegistry()}
	logger, err := audit.New(audit.Config{Sink: &collectSink{}, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Config{Store: st, Audit: logger, Telemetry: tel})

	if status, _, body := post(t, ts.URL+"/v1/allocate", AllocateRequest{ILOC: testSource(t)}, nil); status != http.StatusOK {
		t.Fatalf("sync status %d\n%s", status, body)
	}
	status, _, raw := post(t, ts.URL+"/v1/jobs", jobBatchBody(t), nil)
	if status != http.StatusOK {
		t.Fatalf("submit status %d\n%s", status, raw)
	}
	if final := pollJob(t, ts.URL, decodeJob(t, raw).JobID); final.State != "done" {
		t.Fatalf("job ended %s", final.State)
	}
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := make(map[string]int)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		seen[name]++
	}
	for _, want := range []string{"audit.flushed", "audit.records", "jobs.active", "jobs.retained", "store.l2.entries", "server.requests"} {
		if seen[want] == 0 {
			t.Fatalf("/metrics lacks %s", want)
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("/metrics prints %s %d times", name, n)
		}
	}
	if seen["audit.logged"] != 0 {
		t.Error("/metrics still prints the audit.logged gauge beside the audit.records counter")
	}
}

// TestRetainedJobsGauge: the job manager keeps jobs.retained current as
// jobs finish and expire, with no scrape needed to refresh it.
func TestRetainedJobsGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := newTestServer(t, Config{JobRetention: 30 * time.Millisecond, Telemetry: &telemetry.Sink{Metrics: reg}})
	status, _, raw := post(t, ts.URL+"/v1/jobs", jobBatchBody(t), nil)
	if status != http.StatusOK {
		t.Fatalf("submit status %d\n%s", status, raw)
	}
	id := decodeJob(t, raw).JobID
	pollJob(t, ts.URL, id)
	// A poll can see the job done a moment before the manager files it
	// as retained.
	for deadline := time.Now().Add(2 * time.Second); reg.Gauge("jobs.retained").Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("jobs.retained = %d after the job finished, want 1", reg.Gauge("jobs.retained").Value())
		}
	}
	time.Sleep(60 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("expired job = %d, want 410", resp.StatusCode)
	}
	if got := reg.Gauge("jobs.retained").Value(); got != 0 {
		t.Fatalf("jobs.retained = %d after expiry, want 0", got)
	}
}
