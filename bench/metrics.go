package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it. BENCHMARK.json
// is the single list of metric names and units: a run produces values
// by name and emit refuses any it does not declare.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// loadDecls reads BENCHMARK.json from the repository root.
func loadDecls(root string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDecl(nil), f.EndToEnd...), f.PerLayer...) {
		if !metricName.MatchString(d.Name) || d.Unit == "" || seen[d.Name] {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q needs a unique [A-Za-z0-9_.-]+ name and a unit", d.Name)
		}
		seen[d.Name] = true
	}
	return &f, nil
}

// decls returns the metrics a run prints: the end-to-end ones, or the
// per-layer ones on a traced run.
func (f *benchmarkFile) decls(traced bool) []metricDecl {
	if traced {
		return f.PerLayer
	}
	return f.EndToEnd
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// exitCode is the process exit code for a finished run: nonzero when
// any output was wrong.
func (r *result) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

// emit pairs measured values with their declarations. Every declared
// metric must have a value and every value a declaration; either gap is
// a harness bug and an error.
func emit(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s measured NaN", d.Name)
		}
		out[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}
