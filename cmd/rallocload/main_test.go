package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

func testRunner(url string) *runner {
	return &runner{
		client: &http.Client{Timeout: 10 * time.Second},
		urls:   []string{url},
		jobs:   true,
		bodies: [][]byte{[]byte(`{"units":[{"iloc":"x"}]}`)},
	}
}

// fakeJobServer is a minimal async-job backend: one job ID, a scripted
// status sequence, and a fixed NDJSON result stream.
func fakeJobServer(t *testing.T, states []string, results []server.UnitResponse) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobResponse{JobID: "job-000001-aabbccdd", State: "queued", Units: len(results)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		i := int(polls.Add(1)) - 1
		if i >= len(states) {
			i = len(states) - 1
		}
		json.NewEncoder(w).Encode(server.JobResponse{
			JobID: r.PathValue("id"), State: states[i], Units: len(results),
			Backend: "fake-1",
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, u := range results {
			enc.Encode(u)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &polls
}

// contractFake serves both allocation paths: POST /v1/allocate answers
// 200 with units, and POST /v1/jobs accepts a job that is done at the
// first poll and streams the same units. With shed set, both POSTs
// answer 429 instead; posts counts them.
func contractFake(t *testing.T, shed bool, units []server.UnitResponse, posts *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	accept := func(w http.ResponseWriter, body any) {
		posts.Add(1)
		if shed {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set(server.BackendHeader, "fake-1")
		json.NewEncoder(w).Encode(body)
	}
	mux.HandleFunc("POST /v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		accept(w, server.AllocateResponse{Results: units})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		accept(w, server.JobResponse{JobID: "job-000003-00000000", State: "queued", Units: len(units)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobResponse{JobID: r.PathValue("id"), State: "done", Units: len(units), Backend: "fake-1"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for _, u := range units {
			enc.Encode(u)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestShootHoldsBothPathsToOneContract: the sync and the job path share
// the 429 retry budget and the per-unit check, so an unverified unit and
// a 200 without units fail either way.
func TestShootHoldsBothPathsToOneContract(t *testing.T) {
	hit := server.UnitResponse{Name: "a", Code: "nop\n", Verified: true, CacheHit: true, CacheTier: "l2"}
	cases := []struct {
		name    string
		shed    bool
		units   []server.UnitResponse
		wantErr string
	}{
		{"verified", false, []server.UnitResponse{hit}, ""},
		{"shed-past-budget", true, nil, ""},
		{"unverified", false, []server.UnitResponse{{Name: "a", Code: "nop\n"}}, "not verified"},
		{"no-units", false, nil, "no units"},
	}
	for _, mode := range []string{"allocate", "jobs"} {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				var posts atomic.Int64
				rn := testRunner(contractFake(t, tc.shed, tc.units, &posts).URL)
				rn.jobs, rn.expectVerified, rn.retry429 = mode == "jobs", true, 2
				sr, err := rn.shoot()
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if tc.shed {
					if sr.status != http.StatusTooManyRequests || sr.retries != 2 || posts.Load() != 3 {
						t.Fatalf("shot %+v after %d posts, want a 429 after 2 retries", sr, posts.Load())
					}
					return
				}
				if sr.status != http.StatusOK || sr.hits != 1 || sr.diskHits != 1 || sr.code != "nop\n" || sr.backend != "fake-1" {
					t.Fatalf("shot %+v", sr)
				}
			})
		}
	}
}

// TestRunCountsEveryRequest: concurrent workers send exactly -requests
// requests and the report counts each one once.
func TestRunCountsEveryRequest(t *testing.T) {
	var posts atomic.Int64
	hit := server.UnitResponse{Name: "a", Code: "nop\n", Verified: true, CacheHit: true}
	rn := testRunner(contractFake(t, false, []server.UnitResponse{hit}, &posts).URL)
	rn.jobs = false
	rn.run(4, 40, 0)
	r := rn.rep
	if posts.Load() != 40 || r.Requests != 40 || r.OK != 40 || r.CacheHits != 40 || r.Backends["fake-1"] != 40 || rn.firstCode != "nop\n" {
		t.Fatalf("%d posts, report %+v, first code %q", posts.Load(), r, rn.firstCode)
	}
}

func TestShootJobHappyPath(t *testing.T) {
	ts, polls := fakeJobServer(t,
		[]string{"queued", "running", "done"},
		[]server.UnitResponse{
			{Name: "a", Code: "add r1,r2 => r3\n", Verified: true, CacheHit: true, CacheTier: "l2"},
			{Name: "b", Code: "sub r1,r2 => r4\n", Verified: true, CacheHit: true, CacheTier: "l1"},
		})
	rn := testRunner(ts.URL)
	rn.expectVerified = true
	sr, err := rn.shootJob(ts.URL, rn.bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if sr.status != http.StatusOK || sr.backend != "fake-1" {
		t.Fatalf("shot %+v", sr)
	}
	if sr.hits != 2 || sr.diskHits != 1 {
		t.Fatalf("hits %d/%d, want 2 total 1 disk", sr.hits, sr.diskHits)
	}
	if sr.code != "add r1,r2 => r3\nsub r1,r2 => r4\n" {
		t.Fatalf("code %q", sr.code)
	}
	if polls.Load() < 3 {
		t.Fatalf("polled %d times, want the scripted queued/running/done walk", polls.Load())
	}
}

func TestShootJobRejectsUnverifiedUnit(t *testing.T) {
	ts, _ := fakeJobServer(t, []string{"done"},
		[]server.UnitResponse{{Name: "a", Code: "nop\n", Verified: false}})
	rn := testRunner(ts.URL)
	rn.expectVerified = true
	if _, err := rn.shootJob(ts.URL, rn.bodies[0]); err == nil || !strings.Contains(err.Error(), "not verified") {
		t.Fatalf("err = %v, want unit-not-verified", err)
	}
}

// TestShootJobExpiryIsExplicit is the regression for the silent
// 404-after-retention confusion: a 410 carrying code "job_expired"
// must classify as retention expiry — its own counter and an error
// message naming the fix — while a plain 404 stays a generic lookup
// failure.
func TestShootJobExpiryIsExplicit(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobResponse{JobID: "job-000002-00000000", State: "queued", Units: 1})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "job expired", Code: "job_expired"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rn := testRunner(ts.URL)
	_, err := rn.shootJob(ts.URL, rn.bodies[0])
	if err == nil || !strings.Contains(err.Error(), "expired") || !strings.Contains(err.Error(), "-job-retention") {
		t.Fatalf("err = %v, want explicit expiry message", err)
	}
	if rn.jobsExpired.Load() != 1 {
		t.Fatalf("jobsExpired = %d, want 1", rn.jobsExpired.Load())
	}

	// A plain 404 (wrong ID) is NOT an expiry.
	err = rn.jobLookupErr("job-x", http.StatusNotFound, []byte(`{"error":"unknown job"}`))
	if err == nil || strings.Contains(err.Error(), "retention") {
		t.Fatalf("404 err = %v, want generic lookup failure", err)
	}
	if rn.jobsExpired.Load() != 1 {
		t.Fatalf("jobsExpired moved on a 404: %d", rn.jobsExpired.Load())
	}
}

func TestShootJobShedRespectsRetryBudget(t *testing.T) {
	var submits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "job queue full"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rn := testRunner(ts.URL)
	sr, err := rn.shootJob(ts.URL, rn.bodies[0])
	if err != nil || sr.status != http.StatusTooManyRequests {
		t.Fatalf("budget 0: sr %+v err %v, want clean 429", sr, err)
	}
	if submits.Load() != 1 {
		t.Fatalf("budget 0 submitted %d times", submits.Load())
	}

	rn.retry429 = 2
	sr, err = rn.shootJob(ts.URL, rn.bodies[0])
	if err != nil || sr.status != http.StatusTooManyRequests || sr.retries != 2 {
		t.Fatalf("budget 2: sr %+v err %v", sr, err)
	}
	if submits.Load() != 4 {
		t.Fatalf("budget 2 submitted %d more times, want 3", submits.Load()-1)
	}
}

// TestJobsModeEndToEndAgainstRealServer runs the real async path: a
// live in-process rallocd server, -jobs-shaped body, full
// submit/poll/stream round trip.
func TestJobsModeEndToEndAgainstRealServer(t *testing.T) {
	srv := server.New(server.Config{InstanceID: "load-1"})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	src, err := os.ReadFile("../../testdata/sumabs.iloc")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.BatchRequest{Units: []server.BatchUnit{{
		Name: "sum",
		ILOC: string(src),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	rn := testRunner(ts.URL)
	rn.bodies = [][]byte{body}
	rn.expectVerified = true
	sr, err := rn.shootJob(ts.URL, rn.bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if sr.status != http.StatusOK || sr.code == "" || sr.backend != "load-1" {
		t.Fatalf("real-server shot %+v", sr)
	}
}

func TestCheckAuditClean(t *testing.T) {
	cases := []struct {
		name    string
		st      server.AuditStatsResponse
		wantErr string
	}{
		{"clean", server.AuditStatsResponse{Enabled: true, Logged: 5, Flushed: 5}, ""},
		{"idle", server.AuditStatsResponse{Enabled: true}, "recorded nothing"},
		{"dropped", server.AuditStatsResponse{Enabled: true, Logged: 5, Flushed: 3, Dropped: 2}, "dropped 2"},
		{"unflushed", server.AuditStatsResponse{Enabled: true, Logged: 5, Flushed: 4}, "undelivered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/audit", func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Query().Get("flush") != "1" {
					t.Error("checkAuditClean must request a flush barrier")
				}
				json.NewEncoder(w).Encode(tc.st)
			})
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)
			err := checkAuditClean(&http.Client{Timeout: 5 * time.Second}, ts.URL)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestScrapeKeepsJobAndAuditPrefixes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "store.l1.hits 3\njobs.submitted 2\naudit.dropped 0\nproxy.requests 9\nserver.requests 11\nbad line here\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	m := scrapeStoreMetrics(&http.Client{Timeout: 5 * time.Second}, ts.URL)
	want := map[string]int64{"store.l1.hits": 3, "jobs.submitted": 2, "audit.dropped": 0, "proxy.requests": 9}
	if len(m) != len(want) {
		t.Fatalf("scraped %v, want %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("scraped %v, want %v", m, want)
		}
	}
}
