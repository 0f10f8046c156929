package main

import (
	"math"
	"sort"
)

// summary is the distribution of one timing: how many samples it has
// and nearest-rank percentiles over them. A failed operation enters as
// +Inf, so any percentile whose rank reaches a failure reads +Inf — a
// failure misses every latency limit.
type summary struct {
	N             int
	P50, P90, P99 float64
}

// summarize sorts a copy of samples and reads its percentiles.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		N:   len(s),
		P50: percentile(s, 0.50),
		P90: percentile(s, 0.90),
		P99: percentile(s, 0.99),
	}
}

// percentile is the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q of the samples at or below it. It is
// NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Other tenants of a shared host can slow an operation down but never
// speed it up, so the fastest measurements of repeated work are the
// most stable estimate of the code's own cost (Chen and Revels, "Robust
// benchmarking in noisy environments", 2016). The two helpers below
// pick them out.

// fastestRepeats takes latencies of operations repeated in a fixed
// cycle of n (operation i%n) and returns each operation's fastest time.
func fastestRepeats(latency []float64, n int) []float64 {
	best := make([]float64, min(n, len(latency)))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for i, x := range latency {
		best[i%n] = math.Min(best[i%n], x)
	}
	return best
}

// fastDecileMedian splits latencies into consecutive windows of n and
// returns the 10th percentile of the windows' medians: the median
// latency of the run's fast windows, for operations that never repeat.
func fastDecileMedian(latency []float64, n int) float64 {
	var medians []float64
	for i := 0; i < len(latency); i += n {
		medians = append(medians, summarize(latency[i:min(i+n, len(latency))]).P50)
	}
	sort.Float64s(medians)
	return percentile(medians, 0.10)
}

// median is the middle of values (the mean of the middle two for an
// even count).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads printed here match the ones the
// benchmark contract is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// finite maps +Inf (a percentile that reached a failure) to the largest
// float, which JSON can carry; everything else passes through.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
