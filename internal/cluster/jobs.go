package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// This file is the proxy's async-job surface. A job lives on exactly
// one backend — the one that accepted its POST /v1/jobs — so routing
// has two halves:
//
//   - Submit routes by the content key of the whole batch (a combined
//     hash of every unit's driver-cache key), so identical job bodies
//     land on the same backend and find their cached units there. The
//     accepting backend is remembered in a bounded jobID → backend
//     map.
//   - Polls, result streams and cancels follow the map. On a miss —
//     the proxy restarted, or a peer proxy took the submit — the
//     proxy broadcasts the lookup to every backend and relays the
//     first answer that is not a 404, re-learning the owner when one
//     claims the job.
//
// Result streams are relayed as streams: bytes flush through as the
// owning backend emits each NDJSON line, so a client watching a live
// job through the proxy sees units as they finish.

// maxJobRoutes bounds the jobID → backend map; the oldest routes are
// forgotten first (a forgotten route degrades to a broadcast, not an
// error).
const maxJobRoutes = 8192

// jobKey computes the routing key for a POST /v1/jobs body: the
// combined content key of all units — each unit's driver-cache key
// hashed in order — so the whole batch routes as one and lands where
// its units' cached results live.
func (p *Proxy) jobKey(body []byte) string {
	h := sha256.New()
	for _, key := range p.routeKeys(body, server.KindBatch) {
		fmt.Fprintf(h, "%s\x00", key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rememberJob records (bounded) which backend owns a job.
func (p *Proxy) rememberJob(id, backend string) {
	if id == "" || backend == "" {
		return
	}
	p.jobMu.Lock()
	defer p.jobMu.Unlock()
	if _, known := p.jobOwner[id]; !known {
		p.jobFIFO = append(p.jobFIFO, id)
		for len(p.jobFIFO) > maxJobRoutes {
			delete(p.jobOwner, p.jobFIFO[0])
			p.jobFIFO = p.jobFIFO[1:]
		}
	}
	p.jobOwner[id] = backend
}

// jobBackend looks a job's owner up ("" when unknown).
func (p *Proxy) jobBackend(id string) string {
	p.jobMu.Lock()
	defer p.jobMu.Unlock()
	return p.jobOwner[id]
}

// handleJobSubmit serves POST /v1/jobs: route the whole batch (with
// failover) to the ring owner of its combined content key, remember
// which backend accepted it, relay the answer.
func (p *Proxy) handleJobSubmit(w http.ResponseWriter, r *http.Request, info *server.RequestInfo) {
	p.cfg.Telemetry.Count("proxy.jobs.submitted", 1)
	p.routeOne(w, r, info.ID, info.Body, p.jobKey(info.Body), func(ur *upstreamResponse) {
		var jr server.JobResponse
		if ur.status == http.StatusOK && json.Unmarshal(ur.body, &jr) == nil {
			p.rememberJob(jr.JobID, ur.backend.id)
		}
	})
}

// handleJobForward serves GET /v1/jobs/{id}, GET /v1/jobs/{id}/results
// and DELETE /v1/jobs/{id}: follow the job-route map to the owning
// backend, or broadcast on a miss. The response is relayed as a
// stream, so live result streams flow through.
func (p *Proxy) handleJobForward(w http.ResponseWriter, r *http.Request) {
	tel := p.cfg.Telemetry
	id := r.PathValue("id")
	if owner := p.jobBackend(id); owner != "" {
		if b := p.backends[owner]; b != nil {
			tel.Count("proxy.jobs.routed", 1)
			if p.forwardStream(w, r, b) {
				return
			}
		}
		// The remembered owner is unreachable; fall through to a
		// broadcast in case the job is answerable elsewhere (it is not,
		// for a live job, but the error shape stays the contract's).
	}
	tel.Count("proxy.jobs.broadcast", 1)
	p.broadcastJob(w, r, id)
}

// broadcastJob asks every backend about a job the proxy holds no route
// for, relaying the first answer that is not a 404 (and re-learning
// the owner). All 404s: the job is unknown cluster-wide.
func (p *Proxy) broadcastJob(w http.ResponseWriter, r *http.Request, id string) {
	for _, bid := range p.ring.Backends() {
		b := p.backends[bid]
		status, ok := p.probeJob(r, b)
		if !ok || status == http.StatusNotFound {
			continue
		}
		// This backend claims the job (any verdict but 404 — including
		// the 410 of an expired one). Remember and relay.
		p.rememberJob(id, bid)
		if p.forwardStream(w, r, b) {
			return
		}
	}
	server.WriteJSON(w, http.StatusNotFound, server.ErrorResponse{
		Error: fmt.Sprintf("unknown job %s (no backend claims it)", id),
	})
}

// probeJob asks one backend whether it knows the job (a HEAD-shaped
// GET of its status) without committing to relaying the answer.
func (p *Proxy) probeJob(r *http.Request, b *Backend) (status int, ok bool) {
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.String()+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode, true
}

// forwardStream relays one request to one backend, streaming the
// response through (flushing after every chunk so NDJSON result lines
// reach the client as the backend emits them). Returns false when the
// backend could not be reached at all (nothing was written; the
// caller may try elsewhere).
func (p *Proxy) forwardStream(w http.ResponseWriter, r *http.Request, b *Backend) bool {
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.base.String()+path, nil)
	if err != nil {
		return false
	}
	for _, h := range []string{"X-Request-ID", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.cfg.Telemetry.Count("proxy.upstream.errors", 1)
		b.noteFailure()
		return false
	}
	defer resp.Body.Close()
	copyContract(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away; the relay is over either way
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return true
		}
	}
}

// handleAudit serves GET /v1/audit cluster-wide: the sum of every
// backend's audit delivery counters (?flush=1 passes through, so one
// probe flushes the whole cluster). Backends without an audit stream
// answer 404 and are skipped; if none has one, the proxy answers 404
// too.
func (p *Proxy) handleAudit(w http.ResponseWriter, r *http.Request) {
	query := ""
	if r.URL.RawQuery != "" {
		query = "?" + r.URL.RawQuery
	}
	var total server.AuditStatsResponse
	found := 0
	for _, bid := range p.ring.Backends() {
		b := p.backends[bid]
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.String()+"/v1/audit"+query, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := p.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		if resp.StatusCode == http.StatusOK {
			var st server.AuditStatsResponse
			if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err == nil {
				found++
				total.Enabled = total.Enabled || st.Enabled
				total.Logged += st.Logged
				total.Dropped += st.Dropped
				total.Flushed += st.Flushed
				total.Flushes += st.Flushes
				total.FlushErrors += st.FlushErrors
				if st.FlushError != "" {
					total.FlushError = st.FlushError
				}
			}
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		cancel()
	}
	if found == 0 {
		server.WriteJSON(w, http.StatusNotFound, server.ErrorResponse{Error: "no backend has an audit stream"})
		return
	}
	w.Header().Set("X-Ralloc-Audit-Backends", strconv.Itoa(found))
	server.WriteJSON(w, http.StatusOK, total)
}
