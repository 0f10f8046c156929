// Command rallocload checks the serving contract of rallocd and
// rallocproxy: a fixed set of workers each keeps exactly one allocation
// request in flight against POST /v1/allocate, every answer is held to
// the contract below, and the tool reports counts, throughput and
// latency quantiles as JSON. The smoke scripts and CLI tests drive it;
// the benchmark lives in bench/.
//
//	rallocload -url http://host:port[,http://host:port...]
//	           [-input file.iloc | -corpus dir] [-c 4] [-jobs]
//	           [-duration 5s] [-requests N] [-deadline-ms N]
//	           [-retry-429 N] [-strategy name] [-require-strategy name]
//	           [-machine name] [-require-machine name]
//	           [-phases cold,warm] [-expect-verified]
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
// (under -expect-verified) a 200 carrying an unverified or failed unit
// is an error; the tool exits nonzero if any occurred, which is how the
// smoke test asserts the "only 200 or 429, every 200 verified"
// contract.
//
// -phases runs the same workload once per named phase, back to back
// against the same daemon, and reports each phase separately in the
// output's "phases" array (the top-level numbers stay the aggregate).
// The canonical use is "-phases cold,warm": the first pass populates
// the server's result cache and the second exercises warm serving.
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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/machines"
	"repro/internal/server"
)

// report is the JSON the tool writes. With -phases the top level stays
// the aggregate across all phases and "phases" carries the per-phase
// breakdown.
type report struct {
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	URL         string `json:"url"`
	Concurrency int    `json:"concurrency"`
	DeadlineMs  int    `json:"deadline_ms,omitempty"`
	// JobsMode marks a run driven through the async job API
	// (submit/poll/stream) instead of POST /v1/allocate; JobsExpired
	// counts polls answered 410 "job_expired" — jobs reaped by
	// retention before this tool read their results.
	JobsMode       bool    `json:"jobs_mode,omitempty"`
	JobsExpired    int64   `json:"jobs_expired,omitempty"`
	DurationSec    float64 `json:"duration_sec"`
	Requests       int64   `json:"requests"`
	OK             int64   `json:"ok"`
	Shed           int64   `json:"shed"`
	Retries429     int64   `json:"retries_429,omitempty"`
	Errors         int64   `json:"errors"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	MeanMs         float64 `json:"mean_ms"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	// CacheHits/CacheDiskHits total what the 200 responses reported:
	// units served from the daemon's result cache, and the subset served
	// by its persistent disk tier.
	CacheHits     int64 `json:"cache_hits"`
	CacheDiskHits int64 `json:"cache_disk_hits,omitempty"`
	// Backends counts 200 responses per X-Ralloc-Backend instance —
	// through the routing proxy this is the observed request spread, and
	// the cluster smoke test greps it to pick a victim that is serving.
	Backends map[string]int64 `json:"backends,omitempty"`
	// Phases carries the per-phase breakdown when -phases is set.
	Phases []phaseReport `json:"phases,omitempty"`
	// ServerStore is the daemon's store.* metrics (per-tier cache
	// counters) scraped from GET /metrics after the run; absent when the
	// endpoint has none.
	ServerStore map[string]int64 `json:"server_store,omitempty"`
}

// phaseReport is one -phases leg.
type phaseReport struct {
	Name           string  `json:"name"`
	DurationSec    float64 `json:"duration_sec"`
	Requests       int64   `json:"requests"`
	OK             int64   `json:"ok"`
	Shed           int64   `json:"shed"`
	Retries429     int64   `json:"retries_429,omitempty"`
	Errors         int64   `json:"errors"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	MeanMs         float64 `json:"mean_ms"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	CacheHits      int64   `json:"cache_hits"`
	CacheDiskHits  int64   `json:"cache_disk_hits,omitempty"`
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
	duration := flag.Duration("duration", 5*time.Second, "how long to run each phase (ignored with -requests)")
	requests := flag.Int64("requests", 0, "send exactly this many requests per phase instead of running for -duration")
	deadlineMs := flag.Int("deadline-ms", 0, "X-Deadline-Ms header to send (0 = none)")
	retry429 := flag.Int("retry-429", 0, "retry a shed (429) request up to N times, honoring Retry-After")
	strategy := flag.String("strategy", "", "allocation strategy to request (empty = server default)")
	requireStrategy := flag.String("require-strategy", "", "fail unless GET /v1/strategies lists this name")
	machine := flag.String("machine", "", "target machine to request: a zoo name or regs=N (empty = server default)")
	requireMachine := flag.String("require-machine", "", "fail unless GET /v1/machines lists this name")
	corpusDir := flag.String("corpus", "", "replay a written corpus directory (see cmd/rcorpus) instead of -input; units round-robin as request bodies")
	phases := flag.String("phases", "", "comma-separated phase names; the workload runs once per phase (e.g. cold,warm)")
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

	for _, t := range targets {
		if *waitReady > 0 {
			if err := awaitReady(t, *waitReady); err != nil {
				fail(err)
			}
		}
		if *requireStrategy != "" {
			if err := checkStrategyListed(t, *requireStrategy); err != nil {
				fail(err)
			}
		}
		if *requireMachine != "" {
			if err := checkMachineListed(t, *requireMachine); err != nil {
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

	phaseNames := []string{""}
	if *phases != "" {
		phaseNames = strings.Split(*phases, ",")
		for _, n := range phaseNames {
			if strings.TrimSpace(n) == "" {
				fail(fmt.Errorf("-phases: empty phase name in %q", *phases))
			}
		}
	}

	run := runner{
		client:         &http.Client{Timeout: 2 * time.Minute},
		urls:           targets,
		bodies:         bodies,
		conc:           *conc,
		duration:       *duration,
		requests:       *requests,
		deadlineMs:     *deadlineMs,
		retry429:       *retry429,
		jobs:           *jobsMode,
		expectVerified: *expectVerified,
		backends:       make(map[string]int64),
	}

	r := report{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		URL:         *url,
		Concurrency: *conc,
		DeadlineMs:  *deadlineMs,
		JobsMode:    *jobsMode,
	}
	var allLats []time.Duration
	for _, name := range phaseNames {
		pr, lats := run.phase(name)
		if name != "" {
			r.Phases = append(r.Phases, pr)
			fmt.Fprintf(os.Stderr, "rallocload: phase %s: %d ok, %d shed, %d error(s) in %.2fs (%.0f req/s, p99 %.2fms, %d cache hits, %d from disk)\n",
				pr.Name, pr.OK, pr.Shed, pr.Errors, pr.DurationSec, pr.RequestsPerSec, pr.P99Ms, pr.CacheHits, pr.CacheDiskHits)
		}
		r.DurationSec += pr.DurationSec
		r.Requests += pr.Requests
		r.OK += pr.OK
		r.Shed += pr.Shed
		r.Retries429 += pr.Retries429
		r.Errors += pr.Errors
		r.CacheHits += pr.CacheHits
		r.CacheDiskHits += pr.CacheDiskHits
		allLats = append(allLats, lats...)
	}
	if r.DurationSec > 0 {
		r.RequestsPerSec = float64(r.OK) / r.DurationSec
	}
	r.MeanMs, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs = quantiles(allLats)
	r.JobsExpired = run.jobsExpired.Load()
	r.Backends = run.snapshotBackends()
	r.ServerStore = scrapeStoreMetrics(run.client, targets[0])

	if *codeOut != "" {
		code, _ := run.firstCode.Load().(string)
		if code == "" {
			fail(fmt.Errorf("-code-out: no successful response carried code"))
		}
		if err := os.WriteFile(*codeOut, []byte(code), 0o644); err != nil {
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
	fmt.Fprintf(os.Stderr, "rallocload: %d ok, %d shed (%d retried), %d error(s) in %.2fs (%.0f req/s, p50 %.2fms, p99 %.2fms, %d cache hits, %d from disk)\n",
		r.OK, r.Shed, r.Retries429, r.Errors, r.DurationSec, r.RequestsPerSec, r.P50Ms, r.P99Ms, r.CacheHits, r.CacheDiskHits)
	if r.Errors > 0 {
		err, _ := run.firstErr.Load().(error)
		fail(fmt.Errorf("%d request(s) violated the 200-or-429 contract (first: %v)", r.Errors, err))
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
		if err := checkAuditClean(run.client, targets[0]); err != nil {
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

// runner holds the fixed workload shared by all phases plus the
// cross-phase capture slots (first error, first allocated code) and the
// cross-phase per-backend attribution counts.
type runner struct {
	client         *http.Client
	urls           []string
	bodies         [][]byte
	conc           int
	duration       time.Duration
	requests       int64
	deadlineMs     int
	retry429       int
	jobs           bool
	expectVerified bool
	firstErr       atomic.Value
	firstCode      atomic.Value
	next           atomic.Int64
	nextBody       atomic.Int64
	jobsExpired    atomic.Int64

	mu       sync.Mutex
	backends map[string]int64
}

// snapshotBackends copies the per-backend 200 counts for the report.
func (rn *runner) snapshotBackends() map[string]int64 {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if len(rn.backends) == 0 {
		return nil
	}
	out := make(map[string]int64, len(rn.backends))
	for k, v := range rn.backends {
		out[k] = v
	}
	return out
}

// phase runs one closed-loop leg of the workload and summarizes it.
func (rn *runner) phase(name string) (phaseReport, []time.Duration) {
	var (
		sent, ok, shed, errs atomic.Int64
		retries              atomic.Int64
		hits, diskHits       atomic.Int64
		mu                   sync.Mutex
		lats                 []time.Duration
	)
	deadline := time.Now().Add(rn.duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < rn.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			for {
				if rn.requests > 0 {
					if sent.Add(1) > rn.requests {
						break
					}
				} else {
					if time.Now().After(deadline) {
						break
					}
					sent.Add(1)
				}
				t0 := time.Now()
				sr, rerr := rn.shoot()
				lat := time.Since(t0)
				retries.Add(sr.retries)
				switch {
				case rerr != nil:
					errs.Add(1)
					rn.firstErr.CompareAndSwap(nil, rerr)
				case sr.status == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					ok.Add(1)
					hits.Add(sr.hits)
					diskHits.Add(sr.diskHits)
					if sr.code != "" {
						rn.firstCode.CompareAndSwap(nil, sr.code)
					}
					if sr.backend != "" {
						rn.mu.Lock()
						rn.backends[sr.backend]++
						rn.mu.Unlock()
					}
					local = append(local, lat)
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	pr := phaseReport{
		Name:          name,
		DurationSec:   elapsed.Seconds(),
		Requests:      ok.Load() + shed.Load() + errs.Load(),
		OK:            ok.Load(),
		Shed:          shed.Load(),
		Retries429:    retries.Load(),
		Errors:        errs.Load(),
		CacheHits:     hits.Load(),
		CacheDiskHits: diskHits.Load(),
	}
	if elapsed > 0 {
		pr.RequestsPerSec = float64(pr.OK) / elapsed.Seconds()
	}
	pr.MeanMs, pr.P50Ms, pr.P90Ms, pr.P99Ms, pr.MaxMs = quantiles(lats)
	return pr, lats
}

// shoot sends one allocation request — round-robin across the targets —
// and classifies the answer. A 429 is retried up to -retry-429 times,
// honoring the response's Retry-After (capped so a hostile hint cannot
// stall a worker); sr.retries counts the retries spent. Any error
// return counts against the serving contract.
func (rn *runner) shoot() (shotResult, error) {
	base := rn.urls[int(rn.next.Add(1)-1)%len(rn.urls)]
	body := rn.bodies[int(rn.nextBody.Add(1)-1)%len(rn.bodies)]
	if rn.jobs {
		return rn.shootJob(base, body)
	}
	return rn.shootSync(base, body)
}

// shootSync drives one synchronous POST /v1/allocate round trip.
func (rn *runner) shootSync(base string, body []byte) (shotResult, error) {
	var sr shotResult
	for {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/allocate", bytes.NewReader(body))
		if err != nil {
			return sr, err
		}
		req.Header.Set("Content-Type", "application/json")
		if rn.deadlineMs > 0 {
			req.Header.Set("X-Deadline-Ms", fmt.Sprintf("%d", rn.deadlineMs))
		}
		resp, err := rn.client.Do(req)
		if err != nil {
			return sr, err
		}
		done, err := rn.classify(&sr, resp)
		if done || err != nil {
			return sr, err
		}
		// Shed with retry budget left: honor Retry-After, go again.
		sr.retries++
		time.Sleep(retryWait(resp.Header))
	}
}

// retryWait turns a 429's Retry-After into a bounded sleep: the header's
// delay-seconds capped at 2s, or 100ms when absent/unparseable.
func retryWait(h http.Header) time.Duration {
	if sec, err := strconv.Atoi(h.Get("Retry-After")); err == nil && sec > 0 {
		d := time.Duration(sec) * time.Second
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		return d
	}
	return 100 * time.Millisecond
}

// classify consumes one response. done=false means "shed, and the retry
// budget allows another attempt".
func (rn *runner) classify(sr *shotResult, resp *http.Response) (done bool, err error) {
	defer resp.Body.Close()
	sr.status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return sr.retries >= int64(rn.retry429), nil
	case http.StatusOK:
		var ar server.AllocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			return true, fmt.Errorf("bad 200 body: %w", err)
		}
		var code strings.Builder
		for _, u := range ar.Results {
			if u.Error != "" {
				return true, fmt.Errorf("unit %s failed: %s", u.Name, u.Error)
			}
			if rn.expectVerified && !u.Verified {
				return true, fmt.Errorf("unit %s not verified", u.Name)
			}
			code.WriteString(u.Code)
		}
		sr.hits = int64(ar.Stats.CacheHits)
		sr.diskHits = int64(ar.Stats.CacheDiskHits)
		sr.code = code.String()
		sr.backend = resp.Header.Get(server.BackendHeader)
		return true, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return true, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
}

// shootJob drives one full async job lifecycle: submit, poll until
// terminal, stream results, and hold every streamed unit to the same
// verified/no-error bar as a sync 200. Submit sheds retry under the
// -retry-429 budget like the sync path; poll and stream must answer
// 200 (a 410 "job_expired" is the explicit retention-expiry verdict,
// counted in jobs_expired).
func (rn *runner) shootJob(base string, body []byte) (shotResult, error) {
	var sr shotResult
	var jr server.JobResponse
	for {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return sr, err
		}
		req.Header.Set("Content-Type", "application/json")
		if rn.deadlineMs > 0 {
			req.Header.Set("X-Deadline-Ms", fmt.Sprintf("%d", rn.deadlineMs))
		}
		resp, err := rn.client.Do(req)
		if err != nil {
			return sr, err
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return sr, rerr
		}
		sr.status = resp.StatusCode
		if resp.StatusCode == http.StatusTooManyRequests {
			if sr.retries >= int64(rn.retry429) {
				return sr, nil
			}
			sr.retries++
			time.Sleep(retryWait(resp.Header))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return sr, fmt.Errorf("job submit: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			return sr, fmt.Errorf("job submit: bad 200 body: %w", err)
		}
		break
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
	return sr, rn.streamJob(&sr, base, jr.JobID)
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

// streamJob reads the job's NDJSON result stream and applies the sync
// path's per-unit checks, accumulating cache-hit attribution into sr.
func (rn *runner) streamJob(sr *shotResult, base, id string) error {
	resp, err := rn.client.Get(base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return rn.jobLookupErr(id, resp.StatusCode, body)
	}
	var code strings.Builder
	units := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var u server.UnitResponse
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return fmt.Errorf("job results: bad NDJSON line: %w", err)
		}
		units++
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
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job results: %w", err)
	}
	if units == 0 {
		return fmt.Errorf("job %s streamed no units", id)
	}
	sr.code = code.String()
	return nil
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

// quantiles summarizes a latency sample as (mean, p50, p90, p99, max)
// in milliseconds. An empty sample is all zeros.
func quantiles(lats []time.Duration) (mean, p50, p90, p99, max float64) {
	if len(lats) == 0 {
		return
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	q := func(p float64) time.Duration { return sorted[int(p*float64(len(sorted)-1))] }
	return ms(sum / time.Duration(len(sorted))), ms(q(0.50)), ms(q(0.90)), ms(q(0.99)), ms(sorted[len(sorted)-1])
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

// checkStrategyListed asserts GET /v1/strategies answers 200 and lists
// the named strategy.
func checkStrategyListed(base, name string) error {
	resp, err := http.Get(base + "/v1/strategies")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /v1/strategies: status %d: %s", resp.StatusCode, b)
	}
	var sr server.StrategiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return fmt.Errorf("GET /v1/strategies: bad body: %w", err)
	}
	listed := make([]string, len(sr.Strategies))
	for i, si := range sr.Strategies {
		listed[i] = si.Name
		if si.Name == name {
			return nil
		}
	}
	return fmt.Errorf("GET /v1/strategies does not list %q (got %v)", name, listed)
}

// checkMachineListed asserts GET /v1/machines answers 200 and lists the
// named target machine.
func checkMachineListed(base, name string) error {
	resp, err := http.Get(base + "/v1/machines")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /v1/machines: status %d: %s", resp.StatusCode, b)
	}
	var mr server.MachinesResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return fmt.Errorf("GET /v1/machines: bad body: %w", err)
	}
	listed := make([]string, len(mr.Machines))
	for i, mi := range mr.Machines {
		listed[i] = mi.Name
		if mi.Name == name {
			return nil
		}
	}
	return fmt.Errorf("GET /v1/machines does not list %q (got %v)", name, listed)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rallocload:", err)
	os.Exit(1)
}
