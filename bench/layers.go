package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// zeroLayers starts a traced run's values: every declared per-layer
// metric at zero, which is what a layer the workload does not exercise
// reports. The run overwrites the ones it measures; a name it sets that
// BENCHMARK.json does not declare fails at emit.
func zeroLayers(decls []metricDecl) map[string]float64 {
	v := make(map[string]float64, len(decls))
	for _, d := range decls {
		v[d.Name] = 0
	}
	return v
}

// perCall is the mean duration of the named spans in µs (0 if none).
func perCall(rows map[string]*layerRow, name string) float64 {
	if rows[name] == nil {
		return 0
	}
	return us(rows[name].mean())
}

// perUnit is the named spans' total time in µs divided by n, the
// routines or requests they covered (0 if none).
func perUnit(rows map[string]*layerRow, name string, n int) float64 {
	if rows[name] == nil || n == 0 {
		return 0
	}
	return us(rows[name].total) / float64(n)
}

// allocLayers fills the core.* metrics: the time of core.Allocate and
// of each pass per allocation, the time no pass accounts for, and the
// allocator's own counts per routine from the results.
func allocLayers(v map[string]float64, rows map[string]*layerRow, results []*core.Result) {
	alloc := rows["core.allocate"]
	if alloc == nil || alloc.count == 0 {
		return
	}
	for name, row := range rows {
		if strings.HasPrefix(name, "core.") {
			v[name+"_us"] = us(row.total) / float64(alloc.count)
		}
	}
	v["core.unattributed_us"] = us(alloc.self) / float64(alloc.count)

	var routines, iters, spilled, rematted, coalesced, splits, edges, degraded float64
	for _, r := range results {
		if r == nil {
			continue
		}
		routines++
		iters += float64(len(r.Iterations))
		spilled += float64(r.SpilledRanges)
		rematted += float64(r.RematSpills)
		if r.Degraded {
			degraded++
		}
		peak := 0
		for _, it := range r.Iterations {
			coalesced += float64(it.Coalesced)
			splits += float64(it.Splits)
			for _, p := range it.Passes {
				peak = max(peak, p.Edges)
			}
		}
		edges += float64(peak)
	}
	if routines == 0 {
		return
	}
	v["core.iterations"] = iters / routines
	v["core.spilled"] = spilled / routines
	v["core.remat_share"] = ratio(rematted, spilled)
	v["core.coalesced"] = coalesced / routines
	v["core.splits"] = splits / routines
	v["core.ig_edges"] = edges / routines
	v["core.degraded_share"] = degraded / routines
}

// traceFacts are the run facts a trace file records.
func traceFacts(w workload, e env) map[string]string {
	return map[string]string{
		"workload":   w.name,
		"seed":       strconv.FormatInt(e.seed, 10),
		"seconds":    strconv.FormatFloat(e.seconds.Seconds(), 'g', -1, 64),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"GOMAXPROCS": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
}

// rssSampler samples the summed resident set size of some processes
// every 100 ms until median is called.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
	err  error
}

// startRSS starts sampling the VmRSS of pids (0 means this process).
func startRSS(pids ...int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var samples []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			total := 0.0
			for _, pid := range pids {
				mb, err := statusMB(pid, "VmRSS")
				if err != nil && s.err == nil {
					s.err = err
				}
				total += mb
			}
			samples = append(samples, total)
			select {
			case <-s.stop:
				s.done <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns its median sample in MiB.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	samples := <-s.done
	return median(samples), s.err
}

// statusMB reads a size field of a process's /proc status, such as
// VmRSS, in MiB; pid 0 means this process.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %s: %w", path, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, field)
}
