package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// recordSink keeps the audit records a backend uploads.
type recordSink struct {
	mu   sync.Mutex
	recs []audit.Record
}

func (s *recordSink) Upload(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var r audit.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return err
		}
		s.recs = append(s.recs, r)
	}
	return nil
}

func (s *recordSink) Close() error { return nil }

// idCluster is a proxy over audited backends that remember the
// X-Request-ID of every POST they receive.
type idCluster struct {
	proxy   *Proxy
	front   *httptest.Server
	loggers []*audit.Logger
	sinks   []*recordSink

	mu       sync.Mutex
	received map[string][]string // backend instance -> X-Request-ID per POST
}

func newIDCluster(t *testing.T, n int) *idCluster {
	t.Helper()
	c := &idCluster{received: make(map[string][]string)}
	urls := make([]string, n)
	for i := range urls {
		sink := &recordSink{}
		logger, err := audit.New(audit.Config{Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { logger.Close() })
		name := fmt.Sprintf("b%d", i+1)
		h := server.New(server.Config{InstanceID: name, Audit: logger}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				c.mu.Lock()
				c.received[name] = append(c.received[name], r.Header.Get("X-Request-ID"))
				c.mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		c.loggers = append(c.loggers, logger)
		c.sinks = append(c.sinks, sink)
	}
	p, err := New(Config{Backends: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	c.proxy = p
	c.front = httptest.NewServer(p.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// checkReceived fails unless every POST the backends received carried
// id, and returns how many backends received one.
func (c *idCluster) checkReceived(t *testing.T, id string) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, ids := range c.received {
		for _, got := range ids {
			if got != id {
				t.Fatalf("backend %s received X-Request-ID %q, the client saw %q", name, got, id)
			}
		}
	}
	return len(c.received)
}

// records flushes every backend's audit stream and returns its records.
func (c *idCluster) records(t *testing.T) []audit.Record {
	t.Helper()
	var out []audit.Record
	for i, l := range c.loggers {
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		c.sinks[i].mu.Lock()
		out = append(out, c.sinks[i].recs...)
		c.sinks[i].mu.Unlock()
	}
	return out
}

// TestProxyBatchOneRequestID: a proxied /v1/batch whose units have
// several ring owners, sent with no client ID, carries the one ID the
// proxy minted everywhere: the response header and body, the header of
// every sub-batch each backend received, and every audit record.
func TestProxyBatchOneRequestID(t *testing.T) {
	const n = 9
	c := newIDCluster(t, 3)
	owners := make(map[string]bool)
	for i := 0; i < n; i++ {
		owners[c.proxy.Owner(unitKey(t, i))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("batch of %d units maps to %d owner(s); the test needs >= 2", n, len(owners))
	}

	status, hdr, raw := postJSON(t, c.front.URL+"/v1/batch", batchOf(n), nil)
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, raw)
	}
	id := hdr.Get("X-Request-ID")
	if id == "" {
		t.Fatal("response has no X-Request-ID")
	}
	if got := decodeResponse(t, raw).RequestID; got != id {
		t.Fatalf("body request_id %q, header %q", got, id)
	}
	if got := c.checkReceived(t, id); got != len(owners) {
		t.Fatalf("%d backends received a sub-batch, want %d", got, len(owners))
	}
	recs := c.records(t)
	if len(recs) != n {
		t.Fatalf("%d audit records, want %d", len(recs), n)
	}
	for _, r := range recs {
		if r.RequestID != id {
			t.Fatalf("audit record of %s on %s has request_id %q, the client saw %q", r.Unit, r.Backend, r.RequestID, id)
		}
	}
}

// TestProxyJobOneRequestID: a job submitted through the proxy with no
// client ID keeps the proxy's ID as Job.RequestID, on the submit answer,
// on every poll, on the backend's request and on every audit record.
func TestProxyJobOneRequestID(t *testing.T) {
	const n = 6
	c := newIDCluster(t, 3)
	status, hdr, raw := postJSON(t, c.front.URL+"/v1/jobs", jobBody(n), nil)
	if status != http.StatusOK {
		t.Fatalf("submit %d\n%s", status, raw)
	}
	id := hdr.Get("X-Request-ID")
	jr := decodeJobResp(t, raw)
	if id == "" || jr.RequestID != id {
		t.Fatalf("submit request_id %q, header %q", jr.RequestID, id)
	}
	if final := pollProxyJob(t, c.front.URL, jr.JobID); final.RequestID != id {
		t.Fatalf("polled job request_id %q, the client saw %q", final.RequestID, id)
	}
	if got := c.checkReceived(t, id); got != 1 {
		t.Fatalf("%d backends received the submit, want 1", got)
	}
	recs := c.records(t)
	if len(recs) != n {
		t.Fatalf("%d audit records, want %d", len(recs), n)
	}
	for _, r := range recs {
		if r.RequestID != id || r.JobID != jr.JobID {
			t.Fatalf("audit record of %s: request_id %q job %q, want %q and %q", r.Unit, r.RequestID, r.JobID, id, jr.JobID)
		}
	}
}

// TestProxyOwnAnswersCarryRequestID: the proxy's own 400s (a bad
// X-Deadline-Ms, an oversized body), its 405 and its 429 all carry the
// request's ID, and afterwards proxy.requests equals the sum of the
// proxy.status.* counts.
func TestProxyOwnAnswersCarryRequestID(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newTestCluster(t, 2, func(cfg *Config) { cfg.Telemetry = &telemetry.Sink{Metrics: reg} })
	check := func(what string, status int, hdr http.Header, raw []byte, want int) {
		t.Helper()
		var er server.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, raw)
		}
		if status != want || er.RequestID == "" || er.RequestID != hdr.Get("X-Request-ID") {
			t.Fatalf("%s: status %d (want %d), request_id %q, header %q", what, status, want, er.RequestID, hdr.Get("X-Request-ID"))
		}
	}

	status, hdr, raw := postJSON(t, c.front.URL+"/v1/allocate", server.AllocateRequest{ILOC: unitSource(0)},
		map[string]string{"X-Deadline-Ms": "soon"})
	check("bad deadline", status, hdr, raw, http.StatusBadRequest)

	huge := unitSource(0) + strings.Repeat("\n", server.MaxBodyBytes)
	status, hdr, raw = postJSON(t, c.front.URL+"/v1/batch", server.BatchRequest{Units: []server.BatchUnit{{ILOC: huge}}}, nil)
	check("oversized body", status, hdr, raw, http.StatusBadRequest)

	resp, err := http.Get(c.front.URL + "/v1/allocate")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	check("GET", resp.StatusCode, resp.Header, buf.Bytes(), http.StatusMethodNotAllowed)

	for _, id := range c.ids {
		c.faults.Host(host(id)).Partition()
	}
	status, hdr, raw = postJSON(t, c.front.URL+"/v1/allocate", server.AllocateRequest{ILOC: unitSource(0)}, nil)
	check("shed", status, hdr, raw, http.StatusTooManyRequests)

	var sum int64
	for class := 1; class <= 5; class++ {
		sum += reg.Counter(fmt.Sprintf("proxy.status.%dxx", class)).Value()
	}
	if got := reg.Counter("proxy.requests").Value(); got != 4 || sum != got {
		t.Fatalf("proxy.requests = %d, status sum = %d, want 4 and 4", got, sum)
	}
}
