package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAll runs one workload, or every workload, runs times each with
// seeds seed, seed+1, ... Each run is its own process, as the benchmark
// contract runs it, so one run's heap and memory high-water mark never
// leak into the next. With more than one run it prints, per workload
// and metric, the median, the quartiles, their distance as a share of
// the median (the spread BENCHMARK.json bounds are judged by) and the
// max/min spread. It returns the exit code.
func runAll(name string, seed int64, seconds, trace, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	decls, err := loadDecls(".")
	if err != nil {
		fatal(err)
	}
	names := workloadNames()
	if name != "" {
		names = []string{name}
	}
	code := 0
	for _, wn := range names {
		var results []*result
		for r := 0; r < runs; r++ {
			var out bytes.Buffer
			cmd := exec.Command(self, "-workload", wn, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wn, seed+int64(r), err)
				code = 1
			}
			if res := lastResult(out.Bytes()); res != nil {
				results = append(results, res)
			}
		}
		if runs > 1 {
			printSpreads(os.Stdout, wn, results, decls.decls(trace == 1))
		}
	}
	return code
}

// lastResult parses the result line a run ends with, or returns nil.
func lastResult(out []byte) *result {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if json.Unmarshal(last, &res) != nil || res.Metrics == nil {
		return nil
	}
	return &res
}

// printSpreads prints one workload's per-metric spreads over its runs.
func printSpreads(w io.Writer, workload string, results []*result, decls []metricDecl) {
	fmt.Fprintf(w, "\n%s: %d runs\n", workload, len(results))
	if len(results) < 2 {
		return
	}
	fmt.Fprintf(w, "%-26s %14s %14s %14s %9s %9s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound")
	for _, d := range decls {
		var vals []float64
		for _, r := range results {
			if v, ok := r.Metrics[d.Name]; ok {
				vals = append(vals, v.Value)
			}
		}
		if len(vals) < 2 {
			continue
		}
		sort.Float64s(vals)
		med := median(vals)
		q1, q3 := quartiles(vals)
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.3f", d.Bound)
		}
		fmt.Fprintf(w, "%-26s %14.6g %14.6g %14.6g %9.4f %9.4f %7s\n", d.Name, med, q1, q3,
			ratio(q3-q1, med), ratio(vals[len(vals)-1]-vals[0], vals[0]), bound)
	}
}

// ratio is a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
