// Command rallocload checks the serving contract of rallocd and
// rallocproxy: a fixed set of workers each keeps exactly one allocation
// request in flight against POST /v1/allocate, every answer is held to
// the contract below, and the tool reports the counts as JSON. The smoke
// scripts and CLI tests drive it; the benchmark, with every latency and
// throughput figure, lives in bench/.
//
//	rallocload -url http://host:port[,http://host:port...]
//	           [-input file.iloc | -corpus dir] [-c 4] [-jobs]
//	           [-duration 5s] [-requests N]
//	           [-retry-429 N] [-strategy name] [-require-strategy name]
//	           [-machine name] [-require-machine name] [-expect-verified]
//	           [-require-cache-hits N] [-require-disk-hits N]
//	           [-code-out file] [-out file]
//
// -url accepts a comma-separated target list; workers spread requests
// round-robin across them (a set of rallocd replicas, or one or more
// rallocproxy front ends). Readiness waiting and strategy checking run
// against every target; the output counts 200s per X-Ralloc-Backend
// instance in "backends", which is how the cluster smoke test finds a
// victim backend that is actually serving before killing it.
//
// -jobs switches each worker from the synchronous POST /v1/allocate to
// the async job lifecycle: submit the same workload as a one-unit
// POST /v1/jobs, poll GET /v1/jobs/{id} until the job is terminal,
// stream GET /v1/jobs/{id}/results, and hold the NDJSON units to the
// same verified/no-error bar as a sync 200. A submit shed with 429
// retries under the same -retry-429 budget. A poll or stream answered
// 410 with code "job_expired" — the job was reaped by retention before
// this worker read it — is counted separately as "jobs_expired" and
// reported explicitly (raise the daemon's -job-retention or poll
// sooner), distinct from the plain 404 of an unknown ID.
//
// -retry-429 N retries a shed request up to N times, honoring the
// response's Retry-After header (capped at 2s per wait). Retries are
// counted separately as "retries_429"; a request still shed after its
// retry budget counts as shed, exactly like -retry-429 0.
//
// -strategy sends the named allocation strategy in each request's
// options. -require-strategy first asks GET /v1/strategies and fails
// unless the server lists the name — the smoke test uses it to assert
// the listing endpoint and a non-default strategy end to end.
//
// -machine sends the named target machine (a zoo name or regs=N) in
// each request's options; an unknown name exits nonzero up front,
// listing the registered ones. -require-machine first asks
// GET /v1/machines and fails unless the server lists the name.
//
// -corpus replaces -input with a written corpus directory (see
// cmd/rcorpus): its manifest is hash-verified, and workers round-robin
// the corpus units as request bodies — heavy, diverse traffic instead
// of one fixed routine. Each unit is one request (a unit file's
// routines allocate together, exactly as /v1/allocate accepts them).
//
// -requests N sends exactly N requests (spread across the workers) and
// ignores -duration; otherwise the workers run closed-loop for
// -duration. Shed responses (429) are counted and retried-by-looping —
// they are part of the server's overload contract, not failures. Any
// other non-200, a transport error, a body that fails to decode, or
// a 200 carrying no units, a failed unit or (under -expect-verified) an
// unverified one is an error; the tool exits nonzero if any occurred,
// which is how the smoke test asserts the "only 200 or 429, every 200
// verified" contract. The same per-unit check holds for -jobs results.
//
// -require-cache-hits / -require-disk-hits fail the run unless the
// servers' 200 responses reported at least N cache hits (respectively
// disk-tier hits) in total — the restart/warm-up smoke test uses them
// to prove persistence end to end. -code-out writes the allocated code
// of the first successful response to a file so two runs can be
// compared byte for byte.
//
// -require-audit-clean asks GET /v1/audit?flush=1 (a synchronous flush
// barrier; through rallocproxy it aggregates the whole cluster) after
// the run and fails unless the audit stream logged at least one record,
// dropped none, and flushed everything it logged — how the jobs smoke
// test proves "one audit record per verdict, none lost".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/machines"
	"repro/internal/server"
)

// report is the JSON the tool writes.
type report struct {
	URL         string `json:"url"`
	Concurrency int    `json:"concurrency"`
	// JobsMode marks a run driven through the async job API
	// (submit/poll/stream) instead of POST /v1/allocate; JobsExpired
	// counts polls answered 410 "job_expired" — jobs reaped by
	// retention before this tool read their results.
	JobsMode    bool  `json:"jobs_mode,omitempty"`
	JobsExpired int64 `json:"jobs_expired,omitempty"`
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok"`
	Shed        int64 `json:"shed"`
	Retries429  int64 `json:"retries_429,omitempty"`
	Errors      int64 `json:"errors"`
	// CacheHits/CacheDiskHits total what the 200 responses reported:
	// units served from the daemon's result cache, and the subset served
	// by its persistent disk tier.
	CacheHits     int64 `json:"cache_hits"`
	CacheDiskHits int64 `json:"cache_disk_hits,omitempty"`
	// Backends counts 200 responses per X-Ralloc-Backend instance —
	// through the routing proxy this is the observed request spread, and
	// the cluster smoke test greps it to pick a victim that is serving.
	Backends map[string]int64 `json:"backends,omitempty"`
	// ServerStore is the daemon's store.* metrics (per-tier cache
	// counters) scraped from GET /metrics after the run; absent when the
	// endpoint has none.
	ServerStore map[string]int64 `json:"server_store,omitempty"`
}

// shotResult is what one request contributed beyond its status code.
type shotResult struct {
	status   int
	hits     int64
	diskHits int64
	code     string
	backend  string
	retries  int64
}

func main() {
	url := flag.String("url", "", "base URL(s) of rallocd/rallocproxy instances, comma-separated (required); workers round-robin across them")
	input := flag.String("input", "testdata/sumabs.iloc", "ILOC source file to allocate")
	conc := flag.Int("c", 4, "concurrent closed-loop workers")
	jobsMode := flag.Bool("jobs", false, "drive the async job API (submit, poll, stream results) instead of POST /v1/allocate")
	duration := flag.Duration("duration", 5*time.Second, "how long to run (ignored with -requests)")
	requests := flag.Int64("requests", 0, "send exactly this many requests instead of running for -duration")
	retry429 := flag.Int("retry-429", 0, "retry a shed (429) request up to N times, honoring Retry-After")
	strategy := flag.String("strategy", "", "allocation strategy to request (empty = server default)")
	requireStrategy := flag.String("require-strategy", "", "fail unless GET /v1/strategies lists this name")
	machine := flag.String("machine", "", "target machine to request: a zoo name or regs=N (empty = server default)")
	requireMachine := flag.String("require-machine", "", "fail unless GET /v1/machines lists this name")
	corpusDir := flag.String("corpus", "", "replay a written corpus directory (see cmd/rcorpus) instead of -input; units round-robin as request bodies")
	expectVerified := flag.Bool("expect-verified", false, "treat an unverified unit in a 200 as an error")
	requireCacheHits := flag.Int64("require-cache-hits", -1, "fail unless responses reported at least N cache hits in total")
	requireDiskHits := flag.Int64("require-disk-hits", -1, "fail unless responses reported at least N disk-tier cache hits in total")
	requireAuditClean := flag.Bool("require-audit-clean", false, "after the run, fail unless GET /v1/audit?flush=1 reports records logged, zero dropped, all flushed")
	codeOut := flag.String("code-out", "", "write the allocated code of the first successful response to this file")
	waitReady := flag.Duration("wait-ready", 0, "poll GET /readyz until 200 for up to this long before shooting (0 = don't wait)")
	out := flag.String("out", "-", "output file (- for stdout)")
	flag.Parse()
	if *url == "" {
		fail(fmt.Errorf("-url is required"))
	}
	var targets []string
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, strings.TrimSuffix(u, "/"))
		}
	}
	if len(targets) == 0 {
		fail(fmt.Errorf("-url lists no targets"))
	}

	if *machine != "" {
		// Resolve up front: a typo exits nonzero before any traffic,
		// with the error naming every registered machine.
		if _, err := machines.Lookup(*machine); err != nil {
			fail(err)
		}
	}

	// One bounded client for every call, so a wedged daemon fails the
	// run instead of hanging it.
	client := &http.Client{Timeout: 2 * time.Minute}
	for _, t := range targets {
		if *waitReady > 0 {
			if err := awaitReady(t, *waitReady); err != nil {
				fail(err)
			}
		}
		if *requireStrategy != "" {
			if err := checkListed(client, t, "/v1/strategies", *requireStrategy); err != nil {
				fail(err)
			}
		}
		if *requireMachine != "" {
			if err := checkListed(client, t, "/v1/machines", *requireMachine); err != nil {
				fail(err)
			}
		}
	}

	// The request options every body carries (nil when all defaults).
	var optsReq *server.OptionsRequest
	if *strategy != "" || *machine != "" {
		optsReq = &server.OptionsRequest{Strategy: *strategy, Machine: *machine}
	}

	// The workload: one fixed -input body, or every unit of a written
	// corpus, each unit one request body the workers round-robin.
	var sources []string
	if *corpusDir != "" {
		m, cunits, err := corpus.Load(*corpusDir)
		if err != nil {
			fail(err)
		}
		for _, u := range cunits {
			sources = append(sources, u.Text)
		}
		fmt.Fprintf(os.Stderr, "rallocload: corpus %s: %d units, %d routines (spec %s)\n",
			*corpusDir, m.Units, m.Routines, m.Spec)
	} else {
		src, err := os.ReadFile(*input)
		if err != nil {
			fail(err)
		}
		sources = []string{string(src)}
	}
	bodies := make([][]byte, len(sources))
	for i, src := range sources {
		var body []byte
		var err error
		if *jobsMode {
			// The job body is the same workload as a one-unit batch; the
			// server's async path must hold it to the same bar.
			jreq := server.BatchRequest{Units: []server.BatchUnit{{ILOC: src}}, Options: optsReq}
			body, err = json.Marshal(jreq)
		} else {
			body, err = json.Marshal(server.AllocateRequest{ILOC: src, Options: optsReq})
		}
		if err != nil {
			fail(err)
		}
		bodies[i] = body
	}

	rn := &runner{
		client:         client,
		urls:           targets,
		bodies:         bodies,
		retry429:       *retry429,
		jobs:           *jobsMode,
		expectVerified: *expectVerified,
	}
	rn.run(*conc, *requests, *duration)
	r := rn.rep
	r.URL, r.Concurrency, r.JobsMode = *url, *conc, *jobsMode
	r.JobsExpired = rn.jobsExpired.Load()
	r.ServerStore = scrapeStoreMetrics(client, targets[0])

	if *codeOut != "" {
		if rn.firstCode == "" {
			fail(fmt.Errorf("-code-out: no successful response carried code"))
		}
		if err := os.WriteFile(*codeOut, []byte(rn.firstCode), 0o644); err != nil {
			fail(err)
		}
	}

	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "rallocload: %d ok, %d shed (%d retried), %d error(s), %d cache hits, %d from disk\n",
		r.OK, r.Shed, r.Retries429, r.Errors, r.CacheHits, r.CacheDiskHits)
	if r.Errors > 0 {
		fail(fmt.Errorf("%d request(s) violated the 200-or-429 contract (first: %v)", r.Errors, rn.firstErr))
	}
	if r.OK == 0 {
		fail(fmt.Errorf("no request succeeded"))
	}
	if *requireCacheHits >= 0 && r.CacheHits < *requireCacheHits {
		fail(fmt.Errorf("responses reported %d cache hit(s), want at least %d", r.CacheHits, *requireCacheHits))
	}
	if *requireDiskHits >= 0 && r.CacheDiskHits < *requireDiskHits {
		fail(fmt.Errorf("responses reported %d disk-tier hit(s), want at least %d", r.CacheDiskHits, *requireDiskHits))
	}
	if *requireAuditClean {
		if err := checkAuditClean(client, targets[0]); err != nil {
			fail(err)
		}
	}
}

// checkAuditClean flushes and reads the target's audit stream counters
// and holds them to the lossless bar: records were logged, none were
// dropped, and the flush barrier delivered every one to the sink.
func checkAuditClean(client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/audit?flush=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /v1/audit: status %d: %s", resp.StatusCode, b)
	}
	var st server.AuditStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("GET /v1/audit: bad body: %w", err)
	}
	if !st.Enabled || st.Logged == 0 {
		return fmt.Errorf("audit stream recorded nothing (%+v)", st)
	}
	if st.Dropped != 0 {
		return fmt.Errorf("audit stream dropped %d record(s) (%+v)", st.Dropped, st)
	}
	if st.Flushed < st.Logged {
		return fmt.Errorf("audit flush barrier left %d record(s) undelivered (%+v)", st.Logged-st.Flushed, st)
	}
	return nil
}

// runner holds the fixed workload and folds every request's outcome
// into the report, with the first error and the first allocated code.
type runner struct {
	client         *http.Client
	urls           []string
	bodies         [][]byte
	retry429       int
	jobs           bool
	expectVerified bool
	next           atomic.Int64
	jobsExpired    atomic.Int64

	mu        sync.Mutex
	rep       report
	firstErr  error
	firstCode string
}

// run drives conc closed-loop workers, each keeping one request in
// flight, until requests have been sent (when > 0) or d has passed.
func (rn *runner) run(conc int, requests int64, d time.Duration) {
	var sent atomic.Int64
	deadline := time.Now().Add(d)
	more := func() bool {
		if requests > 0 {
			return sent.Add(1) <= requests
		}
		return !time.Now().After(deadline)
	}
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				rn.record(rn.shoot())
			}
		}()
	}
	wg.Wait()
}

// record folds one request's outcome into the report.
func (rn *runner) record(sr shotResult, err error) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	r := &rn.rep
	r.Requests++
	r.Retries429 += sr.retries
	switch {
	case err != nil:
		r.Errors++
		if rn.firstErr == nil {
			rn.firstErr = err
		}
	case sr.status == http.StatusTooManyRequests:
		r.Shed++
	default:
		r.OK++
		r.CacheHits += sr.hits
		r.CacheDiskHits += sr.diskHits
		if rn.firstCode == "" {
			rn.firstCode = sr.code
		}
		if sr.backend != "" {
			if r.Backends == nil {
				r.Backends = make(map[string]int64)
			}
			r.Backends[sr.backend]++
		}
	}
}

// shoot sends one request — round-robin across the targets and bodies —
// and classifies the answer. Any error return counts against the
// serving contract.
func (rn *runner) shoot() (shotResult, error) {
	i := int(rn.next.Add(1) - 1)
	base, body := rn.urls[i%len(rn.urls)], rn.bodies[i%len(rn.bodies)]
	if rn.jobs {
		return rn.shootJob(base, body)
	}
	return rn.shootSync(base, body)
}

// post sends body to url, retrying a 429 up to -retry-429 times and
// honoring its Retry-After; sr.retries counts the retries spent. The
// caller reads and closes the returned response, which is a 429 only
// once the budget is spent.
func (rn *runner) post(sr *shotResult, url string, body []byte) (*http.Response, error) {
	for {
		resp, err := rn.client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		sr.status = resp.StatusCode
		if resp.StatusCode != http.StatusTooManyRequests || sr.retries >= int64(rn.retry429) {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sr.retries++
		time.Sleep(retryWait(resp.Header))
	}
}

// retryWait turns a 429's Retry-After into a bounded sleep: the header's
// delay-seconds capped at 2s (so a hostile hint cannot stall a worker),
// or 100ms when absent/unparseable.
func retryWait(h http.Header) time.Duration {
	if sec, err := strconv.Atoi(h.Get("Retry-After")); err == nil && sec > 0 {
		return min(time.Duration(sec)*time.Second, 2*time.Second)
	}
	return 100 * time.Millisecond
}

// shootSync drives one synchronous POST /v1/allocate round trip.
func (rn *runner) shootSync(base string, body []byte) (shotResult, error) {
	var sr shotResult
	resp, err := rn.post(&sr, base+"/v1/allocate", body)
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return sr, nil
	case http.StatusOK:
		var ar server.AllocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			return sr, fmt.Errorf("bad 200 body: %w", err)
		}
		sr.backend = resp.Header.Get(server.BackendHeader)
		return sr, rn.checkUnits(&sr, ar.Results)
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return sr, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
}

// checkUnits holds the units of a 200 (a sync response or a job's
// result stream) to the contract: at least one unit, none failed, and
// under -expect-verified every one verified. It folds their cache hits
// and code into sr.
func (rn *runner) checkUnits(sr *shotResult, units []server.UnitResponse) error {
	if len(units) == 0 {
		return fmt.Errorf("200 carried no units")
	}
	var code strings.Builder
	for _, u := range units {
		if u.Error != "" {
			return fmt.Errorf("unit %s failed: %s", u.Name, u.Error)
		}
		if rn.expectVerified && !u.Verified {
			return fmt.Errorf("unit %s not verified", u.Name)
		}
		if u.CacheHit {
			sr.hits++
			if u.CacheTier == "l2" {
				sr.diskHits++
			}
		}
		code.WriteString(u.Code)
	}
	sr.code = code.String()
	return nil
}

// shootJob drives one full async job lifecycle: submit, poll until
// terminal, stream results, and hold the streamed units to the sync
// path's checks. Submit sheds retry under the -retry-429 budget like the
// sync path; poll and stream must answer 200 (a 410 "job_expired" is
// the explicit retention-expiry verdict, counted in jobs_expired).
func (rn *runner) shootJob(base string, body []byte) (shotResult, error) {
	var sr shotResult
	resp, err := rn.post(&sr, base+"/v1/jobs", body)
	if err != nil {
		return sr, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil || resp.StatusCode == http.StatusTooManyRequests {
		return sr, err
	}
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("job submit: status %d: %s", resp.StatusCode, b)
	}
	var jr server.JobResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		return sr, fmt.Errorf("job submit: bad 200 body: %w", err)
	}
	if jr.JobID == "" {
		return sr, fmt.Errorf("job submit: 200 without job_id")
	}

	final, err := rn.pollJob(base, jr.JobID)
	if err != nil {
		return sr, err
	}
	if final.State != "done" {
		return sr, fmt.Errorf("job %s finished %s, want done", jr.JobID, final.State)
	}
	sr.backend = final.Backend
	units, err := rn.streamJob(base, jr.JobID)
	if err != nil {
		return sr, err
	}
	return sr, rn.checkUnits(&sr, units)
}

// pollJob polls a job's status through to a terminal state.
func (rn *runner) pollJob(base, id string) (server.JobResponse, error) {
	var jr server.JobResponse
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := rn.client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return jr, err
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return jr, rerr
		}
		if resp.StatusCode != http.StatusOK {
			return jr, rn.jobLookupErr(id, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			return jr, fmt.Errorf("job poll: bad 200 body: %w", err)
		}
		if jr.State == "done" || jr.State == "canceled" {
			return jr, nil
		}
		if time.Now().After(deadline) {
			return jr, fmt.Errorf("job %s still %s after 2m", id, jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamJob reads the job's NDJSON result stream.
func (rn *runner) streamJob(base, id string) ([]server.UnitResponse, error) {
	resp, err := rn.client.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, rn.jobLookupErr(id, resp.StatusCode, body)
	}
	var units []server.UnitResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var u server.UnitResponse
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return nil, fmt.Errorf("job results: bad NDJSON line: %w", err)
		}
		units = append(units, u)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("job results: %w", err)
	}
	return units, nil
}

// jobLookupErr classifies a non-200 job poll/stream answer. A 410
// whose body carries code "job_expired" is the retention contract
// speaking — the job was reaped before this worker read it — counted
// separately from errors a wrong ID would produce (404) so a run can
// tell "retention too short for this poll cadence" apart from a bug.
func (rn *runner) jobLookupErr(id string, status int, body []byte) error {
	var er server.ErrorResponse
	if json.Unmarshal(body, &er) == nil && status == http.StatusGone && er.Code == "job_expired" {
		rn.jobsExpired.Add(1)
		return fmt.Errorf("job %s expired before its results were read (410 %s): raise the daemon's -job-retention or poll sooner", id, er.Code)
	}
	return fmt.Errorf("job %s lookup: status %d: %s", id, status, body)
}

// scrapeStoreMetrics fetches GET /metrics from the first target and
// keeps the store.* lines (a daemon's per-tier cache counters), the
// proxy.* lines (a rallocproxy's routing/retry/breaker counters), the
// jobs.* lines (async job lifecycle counters) and the audit.* lines
// (audit-stream delivery/drop counters) as a name→value map. Best
// effort: a missing endpoint or unparsable line just yields nil/less.
func scrapeStoreMetrics(client *http.Client, base string) map[string]int64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	keep := func(name string) bool {
		for _, p := range []string{"store.", "proxy.", "jobs.", "audit."} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var m map[string]int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || !keep(fields[0]) {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[fields[0]] = v
	}
	return m
}

// awaitReady polls /readyz until the daemon reports ready — a booting
// rallocd keeps readiness at 503 until its -warm-from import lands, so
// waiting here is what lets a smoke test assert "warm before the first
// request".
func awaitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkListed asserts GET base+path (/v1/strategies or /v1/machines)
// answers 200 and lists an entry with the given name.
func checkListed(client *http.Client, base, path, name string) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	var l struct {
		server.StrategiesResponse
		server.MachinesResponse
	}
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return fmt.Errorf("GET %s: bad body: %w", path, err)
	}
	var listed []string
	for _, si := range l.Strategies {
		listed = append(listed, si.Name)
	}
	for _, mi := range l.Machines {
		listed = append(listed, mi.Name)
	}
	if slices.Contains(listed, name) {
		return nil
	}
	return fmt.Errorf("GET %s does not list %q (got %v)", path, name, listed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rallocload:", err)
	os.Exit(1)
}
