package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects the durations of one kind of operation.
type latencies []time.Duration

// sorted returns the samples in ascending order as milliseconds.
func (l latencies) sorted() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending values; 0 when there are none.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[min(max(rank(p, len(asc)), 1), len(asc))-1]
}

// rank is the nearest rank of the p-th percentile among n values,
// ceil(p/100 × n), computed in integers at a resolution of 0.1 percentile
// so that p99.9 of 10,000 is rank 9,990 exactly.
func rank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	return (tenths*n + 999) / 1000
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// supportedTail applies the reporting rule for a sample of n values: the
// highest percentile of tailLadder that leaves at least ten samples beyond
// it, and how many samples lie beyond it. ok is false when even the median
// is unsupported (fewer than 20 samples).
func supportedTail(n int) (p float64, beyond int, ok bool) {
	for _, q := range tailLadder {
		if b := n - rank(q, n); b >= 10 {
			return q, b, true
		}
	}
	return 0, 0, false
}

// median returns the middle of values (the mean of the two middles for an
// even count); 0 when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// medianDur is median over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return median(v)
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
