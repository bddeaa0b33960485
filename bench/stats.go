package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two closest ranks. It returns 0 for an empty
// sample, so a workload that lost every interaction reports 0 and fails
// its checks rather than panicking.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is quantile(…, 0.5) of an unsorted sample.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// segmentCount is how many equal segments a measured region is cut into
// for throughput.
const segmentCount = 6

// segmentMedianRate is the throughput definition of this benchmark: done[i]
// is when operation i completed (measured from the start of the region, in
// completion order) and weight is how many units each operation stands for.
// The operations are cut into six equal-count segments, each segment's rate
// is units ÷ its own elapsed time, and the median of the six is returned —
// one stall lands in one segment and cannot move the median, which a
// total ÷ elapsed rate cannot promise.
func segmentMedianRate(done []time.Duration, weight float64) float64 {
	n := len(done)
	if n < segmentCount {
		return 0
	}
	rates := make([]float64, 0, segmentCount)
	prevEnd := time.Duration(0)
	prevIdx := 0
	for s := 1; s <= segmentCount; s++ {
		idx := n * s / segmentCount
		end := done[idx-1]
		if span := end - prevEnd; span > 0 {
			rates = append(rates, float64(idx-prevIdx)*weight/span.Seconds())
		}
		prevEnd, prevIdx = end, idx
	}
	return median(rates)
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method) computes them, because that is the rule the acceptance runs of
// this benchmark are judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := sortedCopy(values)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is (Q3 − Q1) ÷ median, the run-to-run noise figure a
// metric's bound is compared against.
func quartileSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// dueTime is when operation i of an open-loop schedule running at rate
// operations per second is due, measured from the start of the schedule.
// Latency is always taken from here, never from when the generator got
// round to sending.
func dueTime(i int, ratePerSec float64) time.Duration {
	return time.Duration(float64(i) / ratePerSec * float64(time.Second))
}
