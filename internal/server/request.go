package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/iloc"
)

// This file is the request contract of the allocation service, in one
// place: how a body becomes driver units, how X-Deadline-Ms becomes a
// time budget, and how JSON answers and 429s are written. rallocd's
// handlers and rallocproxy's routing (internal/cluster) both call it,
// so a request means the same thing at both hops: the proxy's routing
// keys are the content keys the backend caches under.

// Request is a body shape of the allocation endpoints: *AllocateRequest
// or *BatchRequest.
type Request interface {
	// DriverUnits returns the request's units under the default
	// options def. Each unit's Options is its own resolved copy, and
	// its Verify field says whether the post-allocation checker runs.
	DriverUnits(def core.Options) ([]driver.Unit, error)
}

// DecodeUnits decodes body strictly into req and returns req's units
// under def. An unknown field is an error, so a misspelled option name
// ("stratgy") is a 400 rather than a silent fall-through to the
// defaults. Every error is the client's: rallocd answers it as a 400.
func DecodeUnits(body io.Reader, req Request, def core.Options) ([]driver.Unit, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return req.DriverUnits(def)
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
		o := opts
		units[i] = driver.Unit{Name: rt.Name, Routine: rt, Options: &o}
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
// The backoff hint is retryAfter in whole seconds, at least one.
func WriteShed(w http.ResponseWriter, retryAfter time.Duration, msg, requestID string) {
	sec := int(retryAfter / time.Second)
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: msg, RequestID: requestID, RetryAfterSec: sec})
}
