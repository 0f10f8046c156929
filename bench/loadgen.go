package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop describes one open-loop load phase: request i is due at
// start + i/rate whatever happened to earlier requests, and at most
// conns requests are in flight, one per connection. A request whose
// connection is still busy at its due time waits, and that wait counts
// in its latency: it is timed from its due time.
type openLoop struct {
	url      string
	rate     float64       // requests per second
	duration time.Duration // requests are due over this window
	conns    int
	body     func(i int) []byte
	// check judges a completed response; a non-nil error fails the
	// request. It runs on the sending goroutine, after the response is
	// timed.
	check func(i, status int, body []byte) error
}

// loadResult holds one phase's per-request timings, indexed by request,
// in milliseconds. latency runs from due time (or, on a connection that
// sat idle until then, from the send) to response complete and is +Inf
// for a failed request; late runs from due time to send, and http from
// send to response complete.
type loadResult struct {
	latency, late, http []float64
	failed              int
	errs                []string
	wall                time.Duration // from start to the last response
}

// requests is the number of requests the phase sends.
func (l openLoop) requests() int { return int(l.rate * l.duration.Seconds()) }

// run sends the phase's requests and waits for every one to finish.
func (l openLoop) run(ctx context.Context) *loadResult {
	n := l.requests()
	res := &loadResult{latency: make([]float64, n), late: make([]float64, n), http: make([]float64, n)}
	transport := &http.Transport{MaxConnsPerHost: l.conns, MaxIdleConnsPerHost: l.conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		start = time.Now()
	)
	fail := func(i int, err error) {
		res.latency[i] = math.Inf(1)
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		if len(res.errs) < 5 {
			res.errs = append(res.errs, fmt.Sprintf("request %d: %v", i, err))
		}
	}
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / l.rate * float64(time.Second)))
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					// The connection was idle at the due time, so any delay
					// past it is the sleep overshooting (up to about a
					// millisecond): the generator's, not the service's.
					from = time.Now()
				}
				sent := time.Now()
				status, body, err := post(ctx, client, l.url, l.body(i))
				done := time.Now()
				res.latency[i] = ms(done.Sub(from))
				res.late[i] = ms(sent.Sub(due))
				res.http[i] = ms(done.Sub(sent))
				if err == nil {
					err = l.check(i, status, body)
				}
				if err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// post sends one JSON request and reads the whole response.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
