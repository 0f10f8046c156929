package server

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
	"repro/internal/telemetry"
)

// This file is the request contract of the allocation service, in one
// place: the request shell every allocation endpoint runs in (request
// ID, method gate, accounting, panic containment), the limits, how a
// body becomes driver units, how X-Deadline-Ms becomes a time budget,
// and how JSON answers and 429s are written. rallocd's handlers and
// rallocproxy's routing (internal/cluster) both call it, so a request
// means the same thing at both hops: the proxy's routing keys are the
// content keys the backend caches under, and the ID the client sees is
// the one every backend logs.

// MaxBodyBytes bounds every request body at both hops; a larger body
// is a 400.
const MaxBodyBytes = 16 << 20

// RetryAfter is the backoff hint of every 429 either hop originates.
const RetryAfter = time.Second

// Limits are the time bounds of a request, shared by rallocd and
// rallocproxy.
type Limits struct {
	// DefaultDeadline applies when the client sends no X-Deadline-Ms
	// header (0: 30s). MaxDeadline clamps client-requested deadlines
	// (0: 2m). At the proxy the budget covers every retry, and its
	// remainder is forwarded to the chosen backend as its own
	// X-Deadline-Ms.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
}

// WithDefaults returns l with its zero fields defaulted.
func (l Limits) WithDefaults() Limits {
	if l.DefaultDeadline <= 0 {
		l.DefaultDeadline = 30 * time.Second
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 2 * time.Minute
	}
	return l
}

// Shell is the request shell of the allocation endpoints (POST
// /v1/allocate, /v1/batch and /v1/jobs) at both hops. Per request it
// settles the ID, gates the method, reads the body under MaxBodyBytes,
// opens a telemetry span on the request's own trace thread, contains a
// handler panic as a 500, and counts the outcome: <prefix>.requests, <prefix>.status.Nxx,
// <prefix>.request.wall and <prefix>.panics are written here and
// nowhere else, so requests always equals the sum of the status counts.
// Safe for concurrent use.
type Shell struct {
	tel                    *telemetry.Sink
	prefix                 string
	requests, wall, panics string
	mint                   string // the random half of the IDs this shell mints
	seq                    atomic.Int64
}

// NewShell returns the shell of one hop, counting under prefix
// ("server" or "proxy") into tel.
func NewShell(prefix string, tel *telemetry.Sink) *Shell {
	var b [4]byte
	// crypto/rand.Read does not fail on the platforms Go supports; were
	// it to, a zero prefix still leaves this shell's IDs unique.
	_, _ = rand.Read(b[:])
	return &Shell{
		tel:      tel,
		prefix:   prefix,
		requests: prefix + ".requests",
		wall:     prefix + ".request.wall",
		panics:   prefix + ".panics",
		mint:     "req-" + hex.EncodeToString(b[:]),
	}
}

// RequestInfo is one request's identity inside the shell.
type RequestInfo struct {
	// ID is the client's X-Request-ID, or the one the first hop minted;
	// a proxy forwards it on every upstream attempt.
	ID string
	// Sink is the telemetry sink on the request's own trace thread.
	Sink *telemetry.Sink
	// Body is the request body, read whole.
	Body []byte
}

// Wrap mounts h in the shell; name names the request's span. The ID
// is the client's X-Request-ID when it sent one, and is minted
// otherwise: a random per-shell prefix and a sequence number, so IDs
// minted by different processes, or by two instances in one process,
// never collide. It is set on the response's X-Request-ID header before
// h runs. A body the shell cannot read is its own 400.
func (sh *Shell) Wrap(name string, h func(http.ResponseWriter, *http.Request, *RequestInfo)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := sh.seq.Add(1)
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("%s-%06d", sh.mint, seq)
		}
		w.Header().Set("X-Request-ID", id)

		tel := sh.tel
		// With a tracer, each request gets its own trace thread, named
		// by its ID, so a trace of a busy server reads as one lane per
		// request.
		sink := tel
		if tel != nil && tel.Trace != nil {
			sink = tel.WithTID(1000 + seq)
			sink.Trace.SetThreadName(1000+seq, id)
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sp := sink.StartSpan(telemetry.CatServer, name)
		defer func() {
			if v := recover(); v != nil {
				tel.Count(sh.panics, 1)
				// Best effort: if the handler already wrote, the client
				// sees a truncated body; either way the process survives.
				WriteJSON(sw, http.StatusInternalServerError, ErrorResponse{
					Error:     fmt.Sprintf("internal error: %v", v),
					RequestID: id,
				})
			}
			if sp.Active() {
				sp.StrArg("id", id)
				sp.Arg("status", int64(sw.status))
			}
			wall := sp.End()
			tel.Count(sh.requests, 1)
			tel.Count(fmt.Sprintf("%s.status.%dxx", sh.prefix, sw.status/100), 1)
			tel.Observe(sh.wall, wall.Nanoseconds())
		}()
		if !allowMethod(sw, r, http.MethodPost, id) {
			return
		}
		body, err := readBody(sw, r)
		if err != nil {
			WriteJSON(sw, http.StatusBadRequest, ErrorResponse{Error: err.Error(), RequestID: id})
			return
		}
		h(sw, r, &RequestInfo{ID: id, Sink: sink, Body: body})
	})
}

// statusWriter records the status code a handler wrote so the shell
// can count outcomes per class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Only gates a route on one method. It is the method check of every
// gated route at both hops; the shell applies the same check to the
// allocation endpoints.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if allowMethod(w, r, method, "") {
			h(w, r)
		}
	}
}

// allowMethod reports whether r uses method, and otherwise answers 405
// with the Allow header and a "<METHOD> only" error.
func allowMethod(w http.ResponseWriter, r *http.Request, method, requestID string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: method + " only", RequestID: requestID})
	return false
}

// Request is a body shape of the allocation endpoints: *AllocateRequest
// or *BatchRequest.
type Request interface {
	// DriverUnits returns the request's units under the default
	// options def. Each unit's Options points at its resolved options,
	// which units of one body may share and nobody mutates; its Verify
	// field says whether the post-allocation checker runs.
	DriverUnits(def core.Options) ([]driver.Unit, error)
}

// Kind is the body shape an allocation endpoint expects. It is part of
// a body's identity in a Memo: the same bytes mean different units, or
// none, on different endpoints.
type Kind byte

const (
	// KindAllocate is the AllocateRequest of POST /v1/allocate.
	KindAllocate Kind = 'a'
	// KindBatch is the BatchRequest of POST /v1/batch and POST /v1/jobs.
	KindBatch Kind = 'b'
)

// request returns an empty request of kind k.
func (k Kind) request() Request {
	if k == KindAllocate {
		return &AllocateRequest{}
	}
	return &BatchRequest{}
}

// maxPresize bounds the buffer readBody allocates up front on the
// strength of a Content-Length header alone.
const maxPresize = 1 << 20

// readBody reads r's body whole, failing past MaxBodyBytes. The buffer
// is presized from Content-Length, so a body arrives in one allocation.
// Every error is the client's, worded as DecodeUnits words a body it
// could not read.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	n := r.ContentLength
	if n < 0 || n > maxPresize {
		n = 512
	}
	buf := make([]byte, 0, n+1) // the extra byte takes the read that sees EOF
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
	}
}

// DecodeBody decodes body strictly into req. An unknown field is an
// error, so a misspelled option name ("stratgy") is a 400 rather than a
// silent fall-through to the defaults.
func DecodeBody(body io.Reader, req Request) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// DecodeUnits decodes body strictly into req and returns req's units
// under def. Every error is the client's: rallocd answers it as a 400.
func DecodeUnits(body io.Reader, req Request, def core.Options) ([]driver.Unit, error) {
	if err := DecodeBody(body, req); err != nil {
		return nil, err
	}
	return req.DriverUnits(def)
}

// memoCap is how many bodies a Memo remembers.
const memoCap = 2048

// Memo remembers the request bodies an endpoint has decoded and keyed:
// for each, every unit's name, content key and resolved options. A
// repeat of the same bytes then skips the JSON decode, the ILOC parse
// and KeyFor. A body is identified by sha256 of its Kind and its raw
// bytes, and what the memo holds for it is a pure function of those
// bytes under the default options fixed at construction, so it cannot
// name a wrong key; results stay in the content-keyed cache. A body that
// failed to decode is never remembered. The memo holds at most memoCap
// bodies, forgetting the oldest first, and keeps none of their bytes.
// Safe for concurrent use.
type Memo struct {
	def core.Options

	mu    sync.Mutex
	units map[memoSum][]memoUnit
	order []memoSum // insertion order, a ring once it holds memoCap
	next  int       // the ring slot the next insertion overwrites
}

type memoSum [sha256.Size]byte

// memoUnit is what a Memo holds per unit. name is a copy, since a
// parsed routine's name points into the body's text; opts is the
// decoded unit's own pointer, so units of one body that share options
// share it here too.
type memoUnit struct {
	name string
	key  driver.Key
	opts *core.Options
}

// NewMemo returns an empty memo for bodies decoded under def.
func NewMemo(def core.Options) *Memo {
	return &Memo{def: def, units: make(map[memoSum][]memoUnit)}
}

// Len returns how many bodies the memo holds.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.units)
}

func memoSumOf(kind Kind, body []byte) memoSum {
	h := sha256.New()
	h.Write([]byte{byte(kind)})
	h.Write(body)
	var sum memoSum
	h.Sum(sum[:0])
	return sum
}

func (m *Memo) get(sum memoSum) []memoUnit {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.units[sum]
}

func (m *Memo) put(sum memoSum, units []memoUnit) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.units[sum]; ok {
		return
	}
	if len(m.order) < memoCap {
		m.order = append(m.order, sum)
	} else {
		delete(m.units, m.order[m.next])
		m.order[m.next] = sum
		m.next = (m.next + 1) % memoCap
	}
	m.units[sum] = units
}

// Units returns the units of a body of the given kind. A remembered
// body's units carry their Name, Options and Key, and a Load that
// decodes the body again, once for all of them, only when one misses
// the cache; fill is nil. Otherwise the units are DecodeUnits's, and
// fill, given the results of running them, remembers the body if every
// unit was keyed. err is DecodeUnits's.
func (m *Memo) Units(kind Kind, body []byte) (units []driver.Unit, fill func([]driver.UnitResult), err error) {
	sum := memoSumOf(kind, body)
	if rec := m.get(sum); rec != nil {
		lb := &lazyBody{kind: kind, body: body, def: m.def}
		units = make([]driver.Unit, len(rec))
		for i, u := range rec {
			units[i] = driver.Unit{Name: u.name, Key: u.key, Options: u.opts,
				Load: func() (*iloc.Routine, error) { return lb.routine(i) }}
		}
		return units, nil, nil
	}
	if units, err = DecodeUnits(bytes.NewReader(body), kind.request(), m.def); err != nil {
		return nil, nil, err
	}
	return units, func(results []driver.UnitResult) {
		rec := make([]memoUnit, len(units))
		for i, r := range results {
			if r.Key == "" {
				return
			}
			rec[i] = memoUnit{name: strings.Clone(units[i].Name), key: r.Key, opts: units[i].Options}
		}
		m.put(sum, rec)
	}, nil
}

// Keys returns the content keys of the units of a body of the given
// kind: remembered, or computed by DecodeUnits and KeyFor and then
// remembered. err is DecodeUnits's.
func (m *Memo) Keys(kind Kind, body []byte) ([]driver.Key, error) {
	sum := memoSumOf(kind, body)
	rec := m.get(sum)
	if rec == nil {
		units, err := DecodeUnits(bytes.NewReader(body), kind.request(), m.def)
		if err != nil {
			return nil, err
		}
		rec = make([]memoUnit, len(units))
		for i, u := range units {
			rec[i] = memoUnit{name: strings.Clone(u.Name), key: driver.KeyFor(u.Routine, *u.Options), opts: u.Options}
		}
		m.put(sum, rec)
	}
	keys := make([]driver.Key, len(rec))
	for i, u := range rec {
		keys[i] = u.key
	}
	return keys, nil
}

// lazyBody decodes a remembered body again, at most once, for those of
// one request's units that miss the cache.
type lazyBody struct {
	once  sync.Once
	kind  Kind
	body  []byte
	def   core.Options
	units []driver.Unit
	err   error
}

func (lb *lazyBody) routine(i int) (*iloc.Routine, error) {
	lb.once.Do(func() {
		lb.units, lb.err = DecodeUnits(bytes.NewReader(lb.body), lb.kind.request(), lb.def)
	})
	if lb.err != nil {
		return nil, lb.err
	}
	return lb.units[i].Routine, nil
}

// DriverUnits parses the program and returns one unit per routine, all
// under the request's options.
func (req *AllocateRequest) DriverUnits(def core.Options) ([]driver.Unit, error) {
	if req.ILOC == "" {
		return nil, errors.New("empty iloc source")
	}
	opts, err := req.Options.Resolve(def)
	if err != nil {
		return nil, err
	}
	routines, err := iloc.ParseProgram(req.ILOC)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	units := make([]driver.Unit, len(routines))
	for i, rt := range routines {
		units[i] = driver.Unit{Name: rt.Name, Routine: rt, Options: &opts}
	}
	return units, nil
}

// DriverUnits returns one unit per batch unit, each under its own
// options resolved over the batch-level ones. An unnamed unit takes
// its routine's name.
func (req *BatchRequest) DriverUnits(def core.Options) ([]driver.Unit, error) {
	if len(req.Units) == 0 {
		return nil, errors.New("empty batch")
	}
	def, err := req.Options.Resolve(def)
	if err != nil {
		return nil, err
	}
	units := make([]driver.Unit, len(req.Units))
	for i, bu := range req.Units {
		opts, err := bu.Options.Resolve(def)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		rt, err := iloc.Parse(bu.ILOC)
		if err != nil {
			return nil, fmt.Errorf("unit %d: parse: %w", i, err)
		}
		name := bu.Name
		if name == "" {
			name = rt.Name
		}
		units[i] = driver.Unit{Name: name, Routine: rt, Options: &opts}
	}
	return units, nil
}

// ParseDeadline resolves a request's time budget from its X-Deadline-Ms
// header: a positive base-10 count of milliseconds that fits an int64
// (digits only, so "5s", "1e3" and "+5" are malformed), clamped to max;
// def when the header is absent. ok is false for a malformed header.
func ParseDeadline(r *http.Request, def, max time.Duration) (d time.Duration, ok bool) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return def, true
	}
	ms, err := strconv.ParseUint(h, 10, 63)
	if err != nil || ms == 0 {
		return 0, false
	}
	if ms > uint64(max/time.Millisecond) {
		return max, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

// WriteJSON marshals v as the response body with the given status. It
// writes every JSON answer of rallocd and rallocproxy, error bodies
// (ErrorResponse) included.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v) // the connection owns delivery; nothing to do on error
}

// WriteShed answers 429 + Retry-After: the admission verdict of a
// saturated server and of a cluster that cannot serve the request now.
// The backoff hint is RetryAfter in whole seconds.
func WriteShed(w http.ResponseWriter, msg, requestID string) {
	const sec = int(RetryAfter / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: msg, RequestID: requestID, RetryAfterSec: sec})
}
