package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/verify"
)

// warmupFor is the untimed open-loop warm-up every serve set-up ends
// with; serve-cold's uses units of another seed, so the timed units stay
// never seen.
const warmupFor = time.Second

// coldWarmupSeed is added to serve-cold's corpus seed for its warm-up
// units.
const coldWarmupSeed = 1000

// byteCheckEvery is how often serve-cold compares a response with an
// in-process allocation byte for byte.
const byteCheckEvery = 50

// serveRun is a serve workload's state once set up. During the load the
// harness holds only flat bytes (bodies, sources, raw responses), so its
// own garbage collector has next to nothing to scan while it shares the
// CPUs with the daemons; programs are parsed again for the checks.
type serveRun struct {
	w        workload
	m        *target.Machine
	opts     core.Options // the daemon's defaults, for in-process checks and replays
	daemon   *proc
	proxy    *proc  // nil without one
	url      string // the allocate endpoint the load hits
	sources  []string
	bodies   [][]byte
	generate time.Duration // corpus generation alone
	// ref holds serve-warm's fill response per body, refAlloc the
	// in-process allocations it was checked against, and refBad the
	// check's verdict.
	ref      []server.AllocateResponse
	refAlloc [][]*core.Result
	refBad   []error
}

func (s *serveRun) stop() {
	if s.proxy != nil {
		_ = s.proxy.stop()
	}
	if s.daemon != nil {
		_ = s.daemon.stop()
	}
}

// pids lists the daemons' process IDs.
func (s *serveRun) pids() []int {
	if s.proxy == nil {
		return []int{s.daemon.pid()}
	}
	return []int{s.daemon.pid(), s.proxy.pid()}
}

// program parses unit k's source back into its routines.
func (s *serveRun) program(k int) ([]*iloc.Routine, error) {
	return iloc.ParseProgram(s.sources[k])
}

// generateUnits generates units [0, n) of spec on workers goroutines.
func generateUnits(spec corpus.Spec, n, workers int) []corpus.Unit {
	out := make([]corpus.Unit, n)
	parallel(n, workers, func(i int) { out[i] = corpus.GenerateUnit(spec, i) })
	return out
}

// requestBodies renders units as POST /v1/allocate bodies.
func requestBodies(units []corpus.Unit) ([][]byte, error) {
	out := make([][]byte, len(units))
	for i, u := range units {
		blob, err := json.Marshal(server.AllocateRequest{ILOC: u.Text})
		if err != nil {
			return nil, err
		}
		out[i] = blob
	}
	return out, nil
}

// setupServe generates the corpus, boots the daemons and fills or warms
// them, up to the first timed request. n is how many timed requests the
// run sends.
func setupServe(ctx context.Context, w workload, e env, bin string, n int) (*serveRun, error) {
	m, err := machines.Lookup(w.machine)
	if err != nil {
		return nil, err
	}
	spec, err := corpus.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	spec.Seed += e.seed
	opts := server.DefaultOptions()
	opts.Machine = m
	s := &serveRun{w: w, m: m, opts: opts}

	count := spec.Count
	if w.cold {
		if n > spec.Count {
			return nil, fmt.Errorf("%d requests need more never-seen units than the corpus has (%d)", n, spec.Count)
		}
		count = n
	}
	start := time.Now()
	units := generateUnits(spec, count, e.workers)
	var warm []corpus.Unit
	if w.cold {
		ws := spec
		ws.Seed += coldWarmupSeed
		warm = generateUnits(ws, int(w.rate*warmupFor.Seconds()), e.workers)
	}
	s.generate = time.Since(start)
	for _, u := range units {
		s.sources = append(s.sources, u.Text)
	}
	if s.bodies, err = requestBodies(units); err != nil {
		return nil, err
	}

	args := []string{"-machine", w.machine, "-instance-id", "bench", "-drain-timeout", "5s"}
	if w.cold {
		dir, err := os.MkdirTemp(e.tmp, "cache-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-cache-dir", dir)
	}
	if s.daemon, err = startProc(filepath.Join(bin, "rallocd"), e.tmp, args...); err != nil {
		return nil, err
	}
	s.url = s.daemon.url + "/v1/allocate"
	if w.proxy {
		if s.proxy, err = startProc(filepath.Join(bin, "rallocproxy"), e.tmp,
			"-backends", s.daemon.url, "-drain-timeout", "5s"); err != nil {
			s.stop()
			return nil, err
		}
		s.url = s.proxy.url + "/v1/allocate"
	}

	warmBodies := s.bodies
	if w.cold {
		if warmBodies, err = requestBodies(warm); err != nil {
			s.stop()
			return nil, err
		}
	} else if err := s.fill(ctx); err != nil {
		s.stop()
		return nil, err
	}
	warmup := openLoop{url: s.url, rate: w.rate, duration: warmupFor, conns: e.workers,
		body:  func(i int) []byte { return warmBodies[i%len(warmBodies)] },
		check: func(_, status int, body []byte) error { _, err := decodeOK(status, body); return err }}
	if res := warmup.run(ctx); res.failed > 0 {
		s.stop()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", res.failed, warmup.requests(), res.errs)
	}
	return s, nil
}

// fill posts every body once so the daemon caches it, keeping each
// response as that body's reference.
func (s *serveRun) fill(ctx context.Context) error {
	client := &http.Client{Timeout: 30 * time.Second}
	s.ref = make([]server.AllocateResponse, len(s.bodies))
	for i, body := range s.bodies {
		status, out, err := post(ctx, client, s.url, body)
		if err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		resp, err := decodeOK(status, out)
		if err != nil {
			return fmt.Errorf("fill body %d: %w", i, err)
		}
		s.ref[i] = *resp
	}
	return nil
}

// decodeOK accepts only a 200 whose units all carry verified code and
// no error.
func decodeOK(status int, body []byte) (*server.AllocateResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp server.AllocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	for _, u := range resp.Results {
		if u.Error != "" || !u.Verified || u.Code == "" {
			return nil, fmt.Errorf("unit %s: verified %v, error %q", u.Name, u.Verified, u.Error)
		}
	}
	return &resp, nil
}

// checkRef checks serve-warm's references before the load: each body's
// served code must equal, byte for byte, an in-process allocation under
// the daemon's options, and must behave in the interpreter as its input
// does.
func (s *serveRun) checkRef(ctx context.Context, workers int) quality {
	s.refAlloc = make([][]*core.Result, len(s.bodies))
	s.refBad = make([]error, len(s.bodies))
	var (
		q  quality
		mu sync.Mutex
	)
	parallel(len(s.bodies), workers, func(b int) {
		res, pq, err := s.checkServed(ctx, b, s.ref[b].Results, true)
		s.refAlloc[b], s.refBad[b] = res, err
		if err == nil {
			mu.Lock()
			q.add(pq)
			mu.Unlock()
		}
	})
	return q
}

// checkServed checks the units served for unit k's program: the code
// must reproduce the input's behaviour in the interpreter, and when
// byteCheck is set it must equal an in-process allocation byte for byte
// (those allocations are returned).
func (s *serveRun) checkServed(ctx context.Context, k int, units []server.UnitResponse, byteCheck bool) ([]*core.Result, quality, error) {
	var q quality
	prog, err := s.program(k)
	if err != nil {
		return nil, q, err
	}
	if len(units) != len(prog) {
		return nil, q, fmt.Errorf("%d units served for %d routines", len(units), len(prog))
	}
	served, err := parseServed(units, s.m)
	if err != nil {
		return nil, q, err
	}
	if err := q.checkProgram(prog, served, s.m); err != nil {
		return nil, q, err
	}
	if !byteCheck {
		return nil, q, nil
	}
	results := make([]*core.Result, len(prog))
	for j, rt := range prog {
		res, err := core.Allocate(ctx, rt, s.opts)
		if err != nil {
			return nil, q, err
		}
		if iloc.Print(res.Routine) != units[j].Code {
			return nil, q, fmt.Errorf("routine %s: served code differs from an in-process allocation", rt.Name)
		}
		results[j] = res
	}
	return results, q, nil
}

// phase is one timed open-loop load over requests [from, from+n): the
// timings and each successful request's raw response body.
type phase struct {
	from int
	*loadResult
	raw [][]byte
}

// load runs one timed phase. Only the status is checked while the load
// runs; check decodes and judges the bodies afterwards.
func (s *serveRun) load(ctx context.Context, e env, from int, d time.Duration, o *outcome) *phase {
	l := openLoop{url: s.url, rate: s.w.rate, duration: d, conns: e.workers}
	p := &phase{from: from, raw: make([][]byte, l.requests())}
	l.body = func(i int) []byte { return s.bodies[(from+i)%len(s.bodies)] }
	l.check = func(i, status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		p.raw[i] = body
		return nil
	}
	p.loadResult = l.run(ctx)
	o.attempted += int64(l.requests())
	o.failed += int64(p.failed)
	o.problems = append(o.problems, p.errs...)
	return p
}

// check judges a phase's responses: each must be a verified 200; on
// serve-warm its code must equal its body's reference, and on
// serve-cold its program must behave as its input in the interpreter
// and every byteCheckEvery-th must equal an in-process allocation byte
// for byte. A failed request's latency becomes +Inf. It returns the
// served code's quality (serve-cold) and how many routines the
// successful responses carried.
func (s *serveRun) check(ctx context.Context, p *phase, workers int, o *outcome) (quality, int64) {
	var (
		q        quality
		routines int64
		mu       sync.Mutex
	)
	parallel(len(p.raw), workers, func(i int) {
		if p.raw[i] == nil {
			return // failed during the load, already counted
		}
		k := p.from + i
		resp, err := decodeOK(http.StatusOK, p.raw[i])
		var pq quality
		switch {
		case err != nil:
		case s.w.cold:
			_, pq, err = s.checkServed(ctx, k, resp.Results, k%byteCheckEvery == 0)
		default:
			err = s.sameAsRef(k%len(s.bodies), resp)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			p.latency[i] = math.Inf(1)
			o.fail("request %d: %v", k, err)
			return
		}
		q.add(pq)
		routines += int64(len(resp.Results))
	})
	return q, routines
}

// sameAsRef reports whether a serve-warm response carries exactly its
// body's reference code.
func (s *serveRun) sameAsRef(b int, resp *server.AllocateResponse) error {
	if s.refBad[b] != nil {
		return s.refBad[b]
	}
	if len(resp.Results) != len(s.ref[b].Results) {
		return fmt.Errorf("body %d: %d units, first response had %d", b, len(resp.Results), len(s.ref[b].Results))
	}
	for j, u := range resp.Results {
		if u.Code != s.ref[b].Results[j].Code {
			return fmt.Errorf("body %d: code differs from its first response", b)
		}
	}
	return nil
}

// runServe runs serve-warm or serve-cold.
func runServe(ctx context.Context, w workload, e env) (*outcome, error) {
	bin := filepath.Join(e.tmp, "bin")
	if err := buildDaemons(ctx, e.root, bin); err != nil {
		return nil, err
	}
	n := int(w.rate * e.seconds.Seconds())
	reps := setupReps
	if e.traced {
		reps = 1
	}
	setups := make([]float64, reps)
	var s *serveRun
	for i := range setups {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		var err error
		if s, err = setupServe(ctx, w, e, bin, n); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer s.stop()
	fmt.Fprintf(e.log, "  %d bodies on %s at %.0f req/s over %d connections, %s\n",
		len(s.bodies), s.m.Name, w.rate, e.workers, s.url)

	o := newOutcome()
	var q quality
	if !w.cold {
		q = s.checkRef(ctx, e.workers)
	}
	if e.traced {
		return s.traced(ctx, e, o)
	}
	sampler := startRSS(s.pids()...)
	p := s.load(ctx, e, 0, e.seconds, o)
	rss, err := sampler.median()
	if err != nil {
		return nil, err
	}
	pq, routines := s.check(ctx, p, e.workers, o)
	if w.cold {
		q = pq
	}
	o.values["setup_s"] = median(setups)
	o.values["routines_per_s"] = float64(routines) / p.wall.Seconds()
	if w.cold {
		o.values["latency_p50_ms"] = fastDecileMedian(p.latency, int(w.rate))
	} else {
		o.values["latency_p50_ms"] = median(fastestRepeats(p.latency, len(s.bodies)))
	}
	o.values["cycles_ratio"] = q.cyclesRatio()
	o.values["code_ratio"] = q.codeRatio()
	o.values["rss_mb"] = rss
	fmt.Fprintf(e.log, "  %d requests, late p99 %.3f ms\n", len(p.latency), summarize(p.late).P99)
	return o, nil
}

// traced is a serve workload's traced run. Half the time the load runs
// untraced; then the daemons' /metrics are scraped around a second
// half, and the harness replays requests in process with a span around
// every public call the daemon's path makes.
func (s *serveRun) traced(ctx context.Context, e env, o *outcome) (*outcome, error) {
	half := e.seconds / 2
	first := s.load(ctx, e, 0, half, o)
	before, err := s.scrapeAll()
	if err != nil {
		return nil, err
	}
	second := s.load(ctx, e, len(first.raw), half, o)
	after, err := s.scrapeAll()
	if err != nil {
		return nil, err
	}
	s.check(ctx, first, e.workers, o)
	s.check(ctx, second, e.workers, o)

	rec := newRecorder()
	rep, err := s.replay(ctx, rec, second, e.tmp)
	if err != nil {
		return nil, err
	}
	rows := rec.rows()
	v := zeroLayers(e.layers)
	v["corpus.generate_s"] = s.generate.Seconds()
	for _, step := range []string{"server.decode", "iloc.parse", "driver.key", "store.get", "store.put", "iloc.print", "server.encode"} {
		v[step+"_us"] = perUnit(rows, step, rep.requests)
	}
	allocLayers(v, rows, rep.allocated)
	v["verify.check_us"] = perUnit(rows, "verify.check", len(rep.allocated))
	v["core.alloc_bytes"] = allocBytes(ctx, rep.routines, s.opts)

	d := metricsDelta{before[0], after[0]}
	v["server.request_wall_us"] = d.meanUS("server.request.wall")
	v["server.queue_wait_us"] = d.meanUS("server.queue.wait")
	v["server.shed_share"] = ratio(d.get("server.shed"), d.get("server.requests"))
	v["store.l1_hit_share"] = ratio(d.get("store.l1.hits"), d.get("store.l1.hits")+d.get("store.l1.misses"))
	v["store.l1_evictions"] = d.get("store.l1.evictions")
	v["store.flush_sync"] = d.get("store.flush.sync")
	if s.proxy != nil {
		pd := metricsDelta{before[1], after[1]}
		v["proxy.request_wall_us"] = pd.meanUS("proxy.request.wall")
		v["proxy.hop_us"] = v["proxy.request_wall_us"] - v["server.request_wall_us"]
	}
	v["loadgen.late_p99_ms"] = summarize(second.late).P99
	v["loadgen.http_p50_ms"] = summarize(second.http).P50
	untraced := summarize(first.latency)
	v["latency_p90_ms"], v["latency_p99_ms"] = untraced.P90, untraced.P99
	v["bench.trace_overhead_pct"] = 100 * (summarize(second.latency).P50 - untraced.P50) / untraced.P50
	v["spill_cycles"] = float64(rep.spillCycles)
	o.values = v

	writeTable(e.log, rows)
	s.writeBreakdown(e.log, v, rows, rep.requests, meanFinite(second.latency)*1e3)
	return o, rec.writeTrace(filepath.Join(e.out, s.w.name+".trace.json"), traceFacts(s.w, e))
}

// scrapeAll scrapes the daemon and, when there is one, the proxy.
func (s *serveRun) scrapeAll() ([]map[string]int64, error) {
	var out []map[string]int64
	for _, p := range []*proc{s.daemon, s.proxy} {
		if p == nil {
			continue
		}
		m, err := p.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// replayed is what the in-process replay covered.
type replayed struct {
	requests    int
	allocated   []*core.Result  // results allocated on cache misses
	routines    []*iloc.Routine // their inputs
	spillCycles int64
}

// replaySample is how many of the traced load's requests serve-cold
// replays in process; serve-warm replays every body once.
const replaySample = 200

// replay re-enacts, in process, what the daemon does for a request,
// each public call inside a span: decode the body, parse the ILOC, key
// each routine and look it up; on a miss allocate, verify and store it;
// print the code; encode the response the daemon sent. serve-warm
// replays every body against a cache holding the reference
// allocations, so every lookup hits; serve-cold replays a sample of the
// phase's requests against a fresh tiered store, so every lookup
// misses.
func (s *serveRun) replay(ctx context.Context, rec *recorder, p *phase, tmp string) (*replayed, error) {
	var (
		cache    driver.ResultCache
		requests []int // unit index per replayed request
		captured []*server.AllocateResponse
	)
	if s.w.cold {
		dir, err := os.MkdirTemp(tmp, "replay-")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, 4096)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		cache = st
		step := max(1, len(p.raw)/replaySample)
		for i := 0; i < len(p.raw) && len(requests) < replaySample; i += step {
			if p.raw[i] == nil || math.IsInf(p.latency[i], 1) {
				continue
			}
			var resp server.AllocateResponse
			if err := json.Unmarshal(p.raw[i], &resp); err != nil {
				return nil, err
			}
			requests = append(requests, p.from+i)
			captured = append(captured, &resp)
		}
	} else {
		c := driver.NewCache(0)
		for b := range s.bodies {
			if s.refBad[b] != nil {
				continue
			}
			prog, err := s.program(b)
			if err != nil {
				return nil, err
			}
			for j, rt := range prog {
				c.Put(driver.KeyFor(rt, s.opts), s.refAlloc[b][j])
			}
			requests = append(requests, b)
			captured = append(captured, &s.ref[b])
		}
		cache = c
	}

	rep := &replayed{requests: len(requests)}
	allocOpts := s.opts
	allocOpts.Verify = false // verified in its own span below
	huge := core.Options{Machine: target.Huge(), Strategy: "remat"}
	for r, k := range requests {
		id := int64(r)
		var (
			req      server.AllocateRequest
			routines []*iloc.Routine
			err      error
		)
		rec.time(id, "server.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(s.bodies[k]))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		if err == nil {
			rec.time(id, "iloc.parse", func() { routines, err = iloc.ParseProgram(req.ILOC) })
		}
		if err != nil {
			return nil, fmt.Errorf("replay unit %d: %w", k, err)
		}
		alloc := make([]*iloc.Routine, len(routines))
		for j, rt := range routines {
			var (
				key driver.Key
				res *core.Result
				hit bool
			)
			rec.time(id, "driver.key", func() { key = driver.KeyFor(rt, s.opts) })
			rec.time(id, "store.get", func() { res, hit = cache.Get(key) })
			if !hit {
				if res, err = rec.allocate(id, func() (*core.Result, error) { return core.Allocate(ctx, rt, allocOpts) }); err != nil {
					return nil, fmt.Errorf("replay unit %d: %w", k, err)
				}
				rec.time(id, "verify.check", func() { err = verify.Check(rt, res.Routine, s.m, verify.Options{Differential: true}) })
				if err != nil {
					return nil, fmt.Errorf("replay unit %d: %w", k, err)
				}
				rec.time(id, "store.put", func() { cache.Put(key, res) })
				rep.allocated = append(rep.allocated, res)
				rep.routines = append(rep.routines, rt)
			}
			rec.time(id, "iloc.print", func() { _ = iloc.Print(res.Routine) })
			alloc[j] = res.Routine
		}
		rec.time(id, "server.encode", func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", " ")
			err = enc.Encode(captured[r])
		})
		if err != nil {
			return nil, err
		}
		h, err := allocateProgram(ctx, routines, huge)
		if err != nil {
			return nil, err
		}
		sc, err := spillCycles(alloc, h, s.m, runPlain)
		if err != nil {
			return nil, fmt.Errorf("replay unit %d: %w", k, err)
		}
		rep.spillCycles += sc
	}
	return rep, nil
}

// replaySteps are the spans of one replayed request, in the order the
// daemon's path makes the calls.
var replaySteps = []string{"server.decode", "iloc.parse", "driver.key", "store.get",
	"core.allocate", "verify.check", "store.put", "iloc.print", "server.encode"}

// writeBreakdown splits a request's mean latency, in µs, into the
// network and client remainder, the proxy hop, the daemon's queue
// wait, the replayed in-process steps, and the rest of the daemon's
// wall time.
func (s *serveRun) writeBreakdown(w io.Writer, v map[string]float64, rows map[string]*layerRow, requests int, client float64) {
	wall := v["server.request_wall_us"]
	outer := wall
	if s.proxy != nil {
		outer = v["proxy.request_wall_us"]
	}
	line := func(name string, us float64) { fmt.Fprintf(w, "  %-36s %10.1f\n", name, us) }
	fmt.Fprintf(w, "request latency breakdown, mean µs per request:\n")
	line("client latency from due time", client)
	line("network and client remainder", client-outer)
	if s.proxy != nil {
		line("proxy hop", v["proxy.hop_us"])
	}
	line("server wall", wall)
	line("  queue wait", v["server.queue_wait_us"])
	rest := wall - v["server.queue_wait_us"]
	for _, step := range replaySteps {
		t := perUnit(rows, step, requests)
		line("  "+step+" (in process)", t)
		rest -= t
	}
	line("  server remainder", rest)
}

// meanFinite is the mean of the finite samples.
func meanFinite(samples []float64) float64 {
	var sum float64
	n := 0
	for _, x := range samples {
		if !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	return ratio(sum, float64(n))
}
