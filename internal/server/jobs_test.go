package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
)

// jobBatchBody builds a 3-unit batch request shared by the sync/async
// comparison tests.
func jobBatchBody(t *testing.T) BatchRequest {
	t.Helper()
	src := testSource(t)
	return BatchRequest{Units: []BatchUnit{
		{Name: "u0", ILOC: src},
		{Name: "u1", ILOC: src, Options: &OptionsRequest{Strategy: "chaitin"}},
		{Name: "u2", ILOC: src, Options: &OptionsRequest{Strategy: "remat:split=all-loops"}},
	}}
}

func decodeJob(t *testing.T, body []byte) JobResponse {
	t.Helper()
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("bad job body: %v\n%s", err, body)
	}
	return jr
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d\n%s", resp.StatusCode, buf.String())
		}
		jr := decodeJob(t, buf.Bytes())
		if jr.State == "done" || jr.State == "canceled" {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamResults reads GET /v1/jobs/{id}/results to EOF, one
// UnitResponse per NDJSON line.
func streamResults(t *testing.T, base, id string) []UnitResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	var out []UnitResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var u UnitResponse
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		out = append(out, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJobResultsMatchSyncBatch is the tentpole contract: the async
// path's streamed results are unit-for-unit identical to a sync
// /v1/batch run of the same body — same order, same code bytes, same
// verdict fields.
func TestJobResultsMatchSyncBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := jobBatchBody(t)

	status, _, syncRaw := post(t, ts.URL+"/v1/batch", body, nil)
	if status != http.StatusOK {
		t.Fatalf("sync status = %d\n%s", status, syncRaw)
	}
	sync := decodeAllocate(t, syncRaw)

	status, hdr, raw := post(t, ts.URL+"/v1/jobs", body, nil)
	if status != http.StatusOK {
		t.Fatalf("submit status = %d\n%s", status, raw)
	}
	jr := decodeJob(t, raw)
	if jr.JobID == "" || jr.Units != 3 {
		t.Fatalf("submit response %+v", jr)
	}
	if jr.RequestID != hdr.Get("X-Request-ID") {
		t.Fatalf("request id %q != header %q", jr.RequestID, hdr.Get("X-Request-ID"))
	}

	final := pollJob(t, ts.URL, jr.JobID)
	if final.State != "done" || final.Completed != 3 || final.Failed != 0 {
		t.Fatalf("final %+v", final)
	}
	if final.CreatedAt == "" || final.StartedAt == "" || final.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	got := streamResults(t, ts.URL, jr.JobID)
	if len(got) != len(sync.Results) {
		t.Fatalf("streamed %d units, sync returned %d", len(got), len(sync.Results))
	}
	for i, u := range got {
		want := sync.Results[i]
		if u.Name != want.Name {
			t.Fatalf("unit %d order: %q vs sync %q", i, u.Name, want.Name)
		}
		if u.Code != want.Code {
			t.Fatalf("unit %d code differs between async and sync:\n%q\nvs\n%q", i, u.Code, want.Code)
		}
		if u.Verified != want.Verified || u.Degraded != want.Degraded || u.Error != want.Error {
			t.Fatalf("unit %d verdict differs: %+v vs %+v", i, u, want)
		}
	}
	// The stream is replayable while the job is retained.
	again := streamResults(t, ts.URL, jr.JobID)
	if len(again) != 3 || again[2].Code != got[2].Code {
		t.Fatalf("replay diverged: %d units", len(again))
	}
}

func TestJobSubmitShedsWhenTableFull(t *testing.T) {
	srv := New(Config{MaxJobs: 1, MaxInFlight: 1})
	ts := newHTTPServer(t, srv)
	// Occupy the only run slot so the first job stays queued.
	srv.slots <- struct{}{}
	defer func() { <-srv.slots }()

	body := jobBatchBody(t)
	status, _, raw := post(t, ts.URL+"/v1/jobs", body, nil)
	if status != http.StatusOK {
		t.Fatalf("first submit = %d\n%s", status, raw)
	}
	first := decodeJob(t, raw)

	status, hdr, raw := post(t, ts.URL+"/v1/jobs", body, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429\n%s", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.RetryAfterSec < 1 {
		t.Fatalf("429 body %s (%v)", raw, err)
	}
	// Status of the queued job still answers — polling is never gated.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.JobID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("queued poll: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// newHTTPServer mounts an already-built Server (tests that need the
// white-box handle and the HTTP surface together).
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts
}

// TestJobCancelMidFlight cancels a queued job through the HTTP
// surface: the DELETE answers, the job lands canceled, and the result
// stream reports the cancellation per unit.
func TestJobCancelMidFlight(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	ts := newHTTPServer(t, srv)
	srv.slots <- struct{}{} // park every job at the gate
	released := false
	defer func() {
		if !released {
			<-srv.slots
		}
	}()

	status, _, raw := post(t, ts.URL+"/v1/jobs", jobBatchBody(t), nil)
	if status != http.StatusOK {
		t.Fatalf("submit = %d\n%s", status, raw)
	}
	jr := decodeJob(t, raw)

	// A streamer attached before the cancel must see the stream end
	// with per-unit cancellation errors, not hang.
	type streamOut struct {
		units []UnitResponse
	}
	ch := make(chan streamOut, 1)
	go func() {
		var o streamOut
		o.units = streamResults(t, ts.URL, jr.JobID)
		ch <- o
	}()
	time.Sleep(20 * time.Millisecond) // let the streamer attach

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d\n%s", resp.StatusCode, buf.String())
	}
	// The cancel answer names the submitting request, like a status poll.
	if cr := decodeJob(t, buf.Bytes()); jr.RequestID == "" || cr.RequestID != jr.RequestID {
		t.Fatalf("cancel request_id = %q, want the submit's %q", cr.RequestID, jr.RequestID)
	}

	final := pollJob(t, ts.URL, jr.JobID)
	if final.State != "canceled" {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if final.Failed != 3 || final.Completed != 3 {
		t.Fatalf("canceled-before-start job: %+v, want all units failed", final)
	}
	out := <-ch
	if len(out.units) != 3 {
		t.Fatalf("streamer saw %d units", len(out.units))
	}
	for i, u := range out.units {
		if u.Error == "" || !strings.Contains(u.Error, "cancel") {
			t.Fatalf("unit %d error = %q, want cancellation", i, u.Error)
		}
	}
	// DELETE on the now-terminal job is a harmless no-op.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.JobID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestJobExpiryAnswers410 is the retention contract: an expired job
// answers 410 with code "job_expired" — distinguishable from the 404
// a never-issued ID gets.
func TestJobExpiryAnswers410(t *testing.T) {
	ts := newTestServer(t, Config{JobRetention: 30 * time.Millisecond, MaxRetainedJobs: 8})
	status, _, raw := post(t, ts.URL+"/v1/jobs", jobBatchBody(t), nil)
	if status != http.StatusOK {
		t.Fatalf("submit = %d", status)
	}
	jr := decodeJob(t, raw)
	pollJob(t, ts.URL, jr.JobID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			var er ErrorResponse
			if err := json.Unmarshal(buf.Bytes(), &er); err != nil {
				t.Fatalf("410 body: %v\n%s", err, buf.String())
			}
			if er.Code != "job_expired" {
				t.Fatalf("410 code = %q, want job_expired", er.Code)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never expired (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Results of an expired job are gone the same way.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.JobID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("expired results = %d, want 410", resp.StatusCode)
	}
	// A never-issued ID is a plain 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-000000-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// collectSink gathers audit uploads in memory for assertion.
type collectSink struct {
	mu      sync.Mutex
	batches [][]byte
}

func (s *collectSink) Upload(b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	s.mu.Lock()
	s.batches = append(s.batches, cp)
	s.mu.Unlock()
	return nil
}
func (s *collectSink) Close() error { return nil }

func (s *collectSink) records(t *testing.T) []audit.Record {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []audit.Record
	for _, b := range s.batches {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var r audit.Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("bad audit line %q: %v", sc.Text(), err)
			}
			out = append(out, r)
		}
	}
	return out
}

// TestAuditRecordsEveryVerdict: one audit record per allocation
// verdict on both the sync and async paths, carrying the content key,
// strategy, backend and (for jobs) the job ID.
func TestAuditRecordsEveryVerdict(t *testing.T) {
	sink := &collectSink{}
	logger, err := audit.New(audit.Config{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer logger.Close()
	ts := newTestServer(t, Config{Audit: logger, InstanceID: "audit-test-1"})

	body := jobBatchBody(t)
	if status, _, raw := post(t, ts.URL+"/v1/batch", body, nil); status != http.StatusOK {
		t.Fatalf("sync = %d\n%s", status, raw)
	}
	status, _, raw := post(t, ts.URL+"/v1/jobs", body, nil)
	if status != http.StatusOK {
		t.Fatalf("submit = %d", status)
	}
	jr := decodeJob(t, raw)
	pollJob(t, ts.URL, jr.JobID)

	// GET /v1/audit?flush=1 flushes synchronously and reports counters.
	resp, err := http.Get(ts.URL + "/v1/audit?flush=1")
	if err != nil {
		t.Fatal(err)
	}
	var stats AuditStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.Enabled || stats.Logged != 6 || stats.Dropped != 0 || stats.Flushed != 6 {
		t.Fatalf("audit stats %+v, want 6 logged+flushed, 0 dropped", stats)
	}

	recs := sink.records(t)
	if len(recs) != 6 {
		t.Fatalf("%d audit records, want 6 (3 sync + 3 async)", len(recs))
	}
	var jobRecs, syncRecs int
	for _, r := range recs {
		if r.Backend != "audit-test-1" {
			t.Fatalf("record backend %q", r.Backend)
		}
		if r.ContentKey == "" || r.Strategy == "" || r.Time == "" {
			t.Fatalf("record missing identity: %+v", r)
		}
		if !r.Verified {
			t.Fatalf("verified verdict not recorded: %+v", r)
		}
		if r.JobID != "" {
			jobRecs++
			if r.JobID != jr.JobID {
				t.Fatalf("job record carries %q, want %q", r.JobID, jr.JobID)
			}
		} else {
			syncRecs++
		}
		if r.RequestID == "" {
			t.Fatalf("record without request id: %+v", r)
		}
	}
	if jobRecs != 3 || syncRecs != 3 {
		t.Fatalf("job/sync records = %d/%d, want 3/3", jobRecs, syncRecs)
	}
	// u1 ran chaitin; its strategy must say so (the verdict is joinable
	// by configuration, not just by name).
	var sawChaitin bool
	for _, r := range recs {
		if r.Unit == "u1" && r.Strategy == "chaitin" {
			sawChaitin = true
		}
	}
	if !sawChaitin {
		t.Fatal("per-unit strategy not recorded")
	}

	// Two spellings of one configuration share a content key, so they
	// must share the canonical strategy label too.
	spellings := BatchRequest{Units: []BatchUnit{
		{Name: "s1", ILOC: body.Units[0].ILOC, Options: &OptionsRequest{Strategy: "remat:split=all-loops,no-bias"}},
		{Name: "s2", ILOC: body.Units[0].ILOC, Options: &OptionsRequest{Strategy: "remat:no-bias, split=all-loops,"}},
	}}
	if status, _, raw := post(t, ts.URL+"/v1/batch", spellings, nil); status != http.StatusOK {
		t.Fatalf("spellings = %d\n%s", status, raw)
	}
	if resp, err := http.Get(ts.URL + "/v1/audit?flush=1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	byUnit := map[string]audit.Record{}
	for _, r := range sink.records(t) {
		byUnit[r.Unit] = r
	}
	s1, s2 := byUnit["s1"], byUnit["s2"]
	if s1.Strategy != "remat:no-bias,split=all-loops" || s2.Strategy != s1.Strategy {
		t.Fatalf("spelling labels = %q, %q, want both canonical", s1.Strategy, s2.Strategy)
	}
	if s1.ContentKey == "" || s2.ContentKey != s1.ContentKey {
		t.Fatalf("spelling content keys differ: %q vs %q", s1.ContentKey, s2.ContentKey)
	}
}

func TestAuditEndpointWithoutStreamIs404(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/audit without stream = %d, want 404", resp.StatusCode)
	}
}

func TestJobsEndpointMethodDiscipline(t *testing.T) {
	ts := newTestServer(t, Config{})
	// PUT on a job resource: the method-aware mux answers 405.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/job-x", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT job = %d, want 405", resp.StatusCode)
	}
	// GET /v1/jobs (no ID) is not a resource either.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/jobs answered 200")
	}
}
