package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one call the harness made into a layer's public function, or
// one allocator pass read back from core.Result. The spans of one
// routine or request share id; parent indexes the enclosing span and is
// -1 at the root.
type span struct {
	id         int64
	parent     int
	name       string
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps a traced run's spans in memory until the run ends. It
// is safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, for end and for children.
func (r *recorder) begin(id int64, parent int, name string) int {
	t := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: t})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	t := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = t
	r.mu.Unlock()
}

// add records a span whose interval is already known.
func (r *recorder) add(id int64, parent int, name string, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	r.mu.Unlock()
}

// time runs f inside a root span.
func (r *recorder) time(id int64, name string, f func()) {
	i := r.begin(id, -1, name)
	f()
	r.end(i)
}

// allocate runs core.Allocate inside a core.allocate span and adds one
// child span per pipeline pass, built from the result's PassStat
// records. The passes are laid end to end from the span's start: the
// allocator reports how long each pass took, not when it began.
func (r *recorder) allocate(id int64, f func() (*core.Result, error)) (*core.Result, error) {
	i := r.begin(id, -1, "core.allocate")
	res, err := f()
	r.end(i)
	if res == nil {
		return res, err
	}
	r.mu.Lock()
	t := r.spans[i].start
	r.mu.Unlock()
	for _, it := range res.Iterations {
		for _, p := range it.Passes {
			r.add(id, i, "core."+p.Name, t, t+p.Time)
			t += p.Time
		}
	}
	return res, err
}

// durations lists the named spans' durations in ms.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// mean is the average span duration.
func (l layerRow) mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.total / time.Duration(l.count)
}

// rows aggregates spans by name. A span's self time is its duration
// minus that of its children.
func (r *recorder) rows() map[string]*layerRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*layerRow)
	row := func(name string) *layerRow {
		if out[name] == nil {
			out[name] = &layerRow{name: name}
		}
		return out[name]
	}
	for _, s := range r.spans {
		d := s.end - s.start
		l := row(s.name)
		l.count++
		l.total += d
		l.self += d
		if s.parent >= 0 {
			row(r.spans[s.parent].name).self -= d
		}
	}
	return out
}

// writeTable prints the per-layer table: count, total and self time,
// and each layer's share of the traced time (the sum of self times,
// which is the time covered by root spans on every worker).
func writeTable(w io.Writer, rows map[string]*layerRow) {
	var list []*layerRow
	var traced time.Duration
	for _, row := range rows {
		list = append(list, row)
		traced += row.self
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-24s %9s %12s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "mean_us", "share")
	for _, row := range list {
		share := 0.0
		if traced > 0 {
			share = 100 * float64(row.self) / float64(traced)
		}
		fmt.Fprintf(w, "%-24s %9d %12.3f %12.3f %12.3f %6.2f%%\n", row.name, row.count,
			ms(row.total), ms(row.self), us(row.mean()), share)
	}
}

// traceEvent is one Chrome trace_event record: the format chrome://tracing
// and ui.perfetto.dev load. Each routine or request gets its own lane.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// maxTraceIDs bounds the routines or requests written to a trace file;
// the table aggregates every span regardless.
const maxTraceIDs = 256

// writeTrace writes the spans of the first maxTraceIDs ids to path,
// with run facts (workload, seed, nproc, GOMAXPROCS) as otherData.
func (r *recorder) writeTrace(path string, facts map[string]string) error {
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.id >= maxTraceIDs {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.id,
			TS: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"id": s.id, "span": i, "parent": s.parent},
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns", "otherData": facts}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
