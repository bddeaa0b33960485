package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v", got)
	}
}

// A stall in one segment must not move the rate: that is why the rate is
// the median of six segments and never total ÷ elapsed.
func TestSegmentMedianRateIgnoresOneStall(t *testing.T) {
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 600; i++ {
		at += time.Millisecond
		if i == 250 {
			at += 5 * time.Second // one long stall, inside the third segment
		}
		done = append(done, at)
	}
	if got := segmentMedianRate(done, 1); !near(got, 1000) {
		t.Errorf("rate with a stall = %v, want 1000", got)
	}
	if got := segmentMedianRate(done, 7); !near(got, 7000) {
		t.Errorf("weighted rate = %v, want 7000", got)
	}
	if got := segmentMedianRate(done[:5], 1); got != 0 {
		t.Errorf("fewer operations than segments: %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// the rule the acceptance runs are judged by. Expected values were
// computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("ten values: %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1.0, 2.5, 4.0, 8.0, 16.0})
	if !near(q1, 1.75) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("five values: %v %v %v", q1, q2, q3)
	}
	if got := quartileSpread([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value has no spread: %v", got)
	}
}

// Open-loop latency is taken from when an operation was due, so due times
// are a pure function of position and rate.
func TestDueTime(t *testing.T) {
	if got := dueTime(0, 20000); got != 0 {
		t.Errorf("first operation due at %v", got)
	}
	if got := dueTime(20000, 20000); got != time.Second {
		t.Errorf("operation 20000 at 20000/s due at %v", got)
	}
	if got := dueTime(100, 20000); got != 5*time.Millisecond {
		t.Errorf("operation 100 at 20000/s due at %v", got)
	}
}
