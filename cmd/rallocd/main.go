// Command rallocd is the allocation daemon: it serves the register
// allocator over HTTP (see internal/server).
//
//	rallocd [-addr host:port] [-addr-file path] [-instance-id name]
//	        [-strategy spec] [-machine name]
//	        [-regs N] [-verify=false] [-j N] [-cache-size N]
//	        [-cache-dir dir] [-warm-from file|url]
//	        [-max-inflight N] [-max-queue N]
//	        [-max-jobs N] [-job-retention d]
//	        [-audit-dir dir | -audit-url url] [-audit-buffer N]
//	        [-audit-flush d] [-audit-block]
//	        [-default-deadline d] [-max-deadline d] [-drain-timeout d]
//	        [-trace out.json]
//
// Endpoints: POST /v1/allocate (one ILOC source, one or more routines),
// POST /v1/batch (named units with per-unit options), POST /v1/jobs
// (the same batch body accepted asynchronously: answers a job ID at
// once; GET /v1/jobs/{id} polls status, GET /v1/jobs/{id}/results
// streams completed units as NDJSON in input order, DELETE cancels),
// GET /v1/cache/bundle (tar.gz snapshot of the disk cache tier, 404
// without -cache-dir), GET /v1/audit (audit-stream delivery counters),
// GET /healthz, /readyz, /metrics, /debug/vars and /debug/pprof.
//
// -audit-dir or -audit-url turns on the audit stream: one NDJSON
// record per allocation verdict — content key, strategy, cache tier,
// verifier verdict, degradation, timing, backend — batched and flushed
// to a rotating file set in -audit-dir or POSTed to -audit-url. The
// stream is lossy by design under backpressure (drops are counted on
// /metrics as audit.dropped); -audit-block trades that for lossless
// delivery that can stall allocations when the sink stalls.
//
// The result cache is bounded by default (-cache-size 4096; 0 removes
// the bound) and in-memory only unless -cache-dir names a directory:
// then a persistent disk tier sits behind the LRU, survives restarts,
// and can be snapshotted as a bundle. -warm-from imports a bundle —
// a local file or a peer's /v1/cache/bundle URL — at boot, *before*
// /readyz flips to 200, so a fresh replica serves cache hits from its
// first request.
//
// -addr-file writes the bound address to a file once the listener is
// up, so scripts can use "-addr 127.0.0.1:0" and discover the ephemeral
// port without racing the daemon.
//
// -instance-id names this replica; the name is stamped on every
// response as the X-Ralloc-Backend header (and per-unit in batch
// bodies), which is how the rallocproxy routing layer and the load
// generator attribute results to backends. Empty derives
// "<hostname>-<pid>".
//
// SIGINT/SIGTERM starts a graceful shutdown: /readyz flips to 503, the
// listener stops accepting, and in-flight batches get up to
// -drain-timeout to finish before the process exits. A
// request still running when the timeout fires is abandoned — its count
// is logged and its connection closed — but the exit status stays 0: a
// wedged request must not turn a routine SIGTERM into a failed deploy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machines"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	strategy := flag.String("strategy", "remat", "default allocation strategy spec, e.g. chaitin or remat:split=all-loops (GET /v1/strategies lists them)")
	machine := flag.String("machine", "", "default target machine: a zoo name from GET /v1/machines, or regs=N; overrides -regs")
	regs := flag.Int("regs", 16, "default registers per class")
	verify := flag.Bool("verify", true, "run the post-allocation verifier on every result by default")
	jobs := flag.Int("j", 0, "per-batch worker pool size (0 = number of CPUs)")
	cacheSize := flag.Int("cache-size", 4096, "in-memory result-cache capacity in entries (0 = unbounded; the daemon defaults to a bound so a long-lived process cannot grow without limit)")
	cacheDir := flag.String("cache-dir", "", "persist the result cache in this directory (disk tier survives restarts; serves GET /v1/cache/bundle)")
	warmFrom := flag.String("warm-from", "", "import a cache bundle (file path or http(s) URL, e.g. a peer's /v1/cache/bundle) into -cache-dir before flipping /readyz")
	maxInflight := flag.Int("max-inflight", 0, "requests allocating concurrently (0 = number of CPUs)")
	maxQueue := flag.Int("max-queue", 0, "requests waiting beyond max-inflight before shedding (0 = 4x max-inflight, -1 = none)")
	maxJobs := flag.Int("max-jobs", 0, "async jobs queued+running before POST /v1/jobs sheds with 429 (0 = 64)")
	jobRetention := flag.Duration("job-retention", 0, "how long a finished job's results stay pollable before GET answers 410 job_expired (0 = 15m)")
	auditDir := flag.String("audit-dir", "", "write the audit stream (one NDJSON record per allocation verdict) to a rotating file set in this directory")
	auditURL := flag.String("audit-url", "", "POST audit batches to this collector URL as application/x-ndjson (mutually exclusive with -audit-dir)")
	auditBuffer := flag.Int("audit-buffer", 0, "audit stream buffer in records; overflow drops (counted) unless -audit-block (0 = 4096)")
	auditFlush := flag.Duration("audit-flush", 0, "audit batch flush interval (0 = 1s)")
	auditBlock := flag.Bool("audit-block", false, "block allocations instead of dropping audit records when the stream is full (lossless, but a stalled sink stalls serving)")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "per-request deadline when the client sends no X-Deadline-Ms")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "upper clamp on client-requested deadlines")
	drain := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown; when it fires, remaining requests are abandoned (logged) and the process still exits 0")
	instanceID := flag.String("instance-id", "", "name stamped on every response as X-Ralloc-Backend (empty: <hostname>-<pid>)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file on clean shutdown")
	flag.Parse()

	if _, err := core.LookupStrategy(*strategy); err != nil {
		fail(err)
	}
	opts := core.Options{Machine: target.WithRegs(*regs), Strategy: *strategy, Verify: *verify}
	if *machine != "" {
		m, err := machines.Lookup(*machine)
		if err != nil {
			fail(err)
		}
		opts.Machine = m
	}

	sink := &telemetry.Sink{Metrics: telemetry.NewRegistry()}
	if *tracePath != "" {
		sink.Trace = telemetry.NewTracer()
	}

	// The result cache: a bounded in-memory L1 always; a persistent
	// disk L2 under -cache-dir. The effective configuration is logged
	// so an operator can see at a glance whether a daemon is bounded
	// and whether it persists.
	if *warmFrom != "" && *cacheDir == "" {
		fail(fmt.Errorf("-warm-from requires -cache-dir (nowhere to persist the bundle)"))
	}
	l1Desc := fmt.Sprintf("%d entries (lru)", *cacheSize)
	if *cacheSize == 0 {
		l1Desc = "unbounded"
	}
	var disk *store.Disk
	if *cacheDir != "" {
		var err error
		if disk, err = store.OpenDisk(*cacheDir); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "rallocd: cache: l1 %s, l2 %s (%d entries on disk)\n",
			l1Desc, *cacheDir, disk.Stats().Entries)
	} else {
		fmt.Fprintf(os.Stderr, "rallocd: cache: l1 %s, no disk tier (-cache-dir to persist)\n", l1Desc)
	}
	tiered := store.NewTiered(driver.NewCache(*cacheSize), disk)
	cfg := server.Config{
		Options:      opts,
		Workers:      *jobs,
		Store:        tiered,
		MaxInFlight:  *maxInflight,
		MaxQueue:     *maxQueue,
		MaxJobs:      *maxJobs,
		JobRetention: *jobRetention,
		Limits:       server.Limits{DefaultDeadline: *defaultDeadline, MaxDeadline: *maxDeadline},
		Telemetry:    sink,
		InstanceID:   *instanceID,
	}

	// The audit stream: one record per allocation verdict, batched to a
	// rotating file set or an HTTP collector. The daemon owns the
	// logger; it is flushed and closed after the drain so the last
	// verdicts land.
	var auditLog *audit.Logger
	if *auditDir != "" && *auditURL != "" {
		fail(fmt.Errorf("-audit-dir and -audit-url are mutually exclusive"))
	}
	if *auditDir != "" || *auditURL != "" {
		var auditSink audit.Sink
		var err error
		if *auditDir != "" {
			auditSink, err = audit.NewFileSink(*auditDir, audit.FileSinkConfig{})
		} else {
			auditSink = audit.NewHTTPSink(*auditURL, nil)
		}
		if err != nil {
			fail(err)
		}
		auditLog, err = audit.New(audit.Config{
			Sink:          auditSink,
			BufferSize:    *auditBuffer,
			FlushInterval: *auditFlush,
			BlockOnFull:   *auditBlock,
			Telemetry:     sink,
		})
		if err != nil {
			fail(err)
		}
		cfg.Audit = auditLog
		mode := "lossy under backpressure (drops counted as audit.dropped)"
		if *auditBlock {
			mode = "lossless (-audit-block: a stalled sink stalls serving)"
		}
		dest := *auditDir
		if dest == "" {
			dest = *auditURL
		}
		fmt.Fprintf(os.Stderr, "rallocd: audit stream to %s, %s\n", dest, mode)
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "rallocd: listening on %s\n", bound)

	// Readiness gating: the listener is up (liveness, warm-from over a
	// local URL, health checks) but /readyz answers 503 until warm-up
	// has finished, so a load balancer never routes to a stone-cold
	// replica that was meant to start warm.
	srv.SetReady(false)
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *warmFrom != "" {
		st, err := tiered.WarmFrom(*warmFrom)
		if err != nil {
			// A peer being down must not keep the replica from serving:
			// warn and start cold. Misconfiguration still surfaces —
			// anything asserting warm hits (smoke tests, probes) fails.
			fmt.Fprintf(os.Stderr, "rallocd: warning: warm-from %s failed, serving cold: %v\n", *warmFrom, err)
		} else {
			fmt.Fprintf(os.Stderr, "rallocd: warmed from %s: %d entries imported (%d replaced, %d corrupt skipped)\n",
				*warmFrom, st.Imported, st.Replaced, st.Skipped)
		}
	}
	srv.SetReady(true)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, stop accepting, give
	// in-flight batches the grace period to answer. A request that
	// outlives the grace period is abandoned — logged and cut off — so a
	// wedged allocation cannot hang SIGTERM forever; the exit status
	// stays 0 because the *daemon* did its part of the contract.
	fmt.Fprintf(os.Stderr, "rallocd: shutting down (drain %v)\n", *drain)
	srv.SetReady(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "rallocd: drain timeout after %v: abandoning %d in-flight request(s)\n",
				*drain, srv.InFlight())
			hs.Close()
		} else {
			fail(fmt.Errorf("drain: %w", err))
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	// Cancel any async jobs still running and wait for their runners;
	// then flush and close the audit stream so the final verdicts
	// (including those cancellations) are on disk before exit.
	srv.Close()
	if auditLog != nil {
		if err := auditLog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rallocd: warning: audit close: %v\n", err)
		}
	}
	// Land write-behind cache entries before exiting so the next boot
	// on the same -cache-dir starts warm.
	tiered.Close()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := sink.Trace.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintln(os.Stderr, "rallocd: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rallocd:", err)
	os.Exit(1)
}
