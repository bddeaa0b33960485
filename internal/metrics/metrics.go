// Package metrics is the low-overhead instrumentation layer of the
// EdiFlow DBMS. Every layer of the stack — the SQL engine, the WAL, the
// network server, the client driver, the notifier and the table-sync
// mirrors — records into a Registry of atomic counters, bucketed latency
// histograms and callback gauges.
//
// The design constraints, in order:
//
//  1. The hot path pays almost nothing: a counter increment is one
//     atomic add; a histogram observation is three. Timing a code
//     section costs two monotonic clock reads, and every timed section
//     is guarded by Registry.Enabled() so instrumentation can be turned
//     off wholesale (the overhead budget in bench_test.go asserts the
//     enabled/disabled delta stays under 5%).
//  2. Like the rest of the paper's design, observability state is
//     *relational*: Registry.Snapshot feeds the SYS_METRICS virtual
//     table so a plain SELECT — embedded or over the wire — reads the
//     same numbers an HTTP scrape would.
//  3. No external dependencies: stdlib only, like everything else in
//     this repository.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// numBuckets covers latencies from 1µs up to ~8.6s in powers of two;
// everything slower lands in the overflow bucket.
const numBuckets = 24

// bucketBound returns the inclusive upper bound (in nanoseconds) of
// bucket i: 1µs, 2µs, 4µs, … 2^23 µs (~8.4s).
func bucketBound(i int) int64 { return int64(1000) << uint(i) }

// Histogram is a fixed-bucket latency histogram. Buckets are exponential
// in nanoseconds; Observe is lock-free (two atomic adds). The count is
// the buckets' total.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets + 1]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	// Index of the first bucket whose bound covers ns.
	i := 0
	for i < numBuckets && ns > bucketBound(i) {
		i++
	}
	h.buckets[i].Add(1)
}

// HistogramStat is a point-in-time summary of a histogram.
type HistogramStat struct {
	Count int64
	Sum   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Avg returns the mean observation, or 0 with no observations.
func (s HistogramStat) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Stat summarizes the histogram. Quantiles are approximated by the upper
// bound of the bucket containing the quantile rank (so they are
// conservative: the true quantile is at most the reported value).
func (h *Histogram) Stat() HistogramStat {
	var counts [numBuckets + 1]int64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	st := HistogramStat{
		Count: total,
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	q := func(p float64) time.Duration {
		if total == 0 {
			return 0
		}
		rank := int64(p * float64(total))
		if rank >= total {
			rank = total - 1
		}
		seen := int64(0)
		for i, c := range counts {
			seen += c
			if seen > rank {
				if i >= numBuckets {
					return st.Max
				}
				return time.Duration(bucketBound(i))
			}
		}
		return st.Max
	}
	st.P50 = q(0.50)
	st.P95 = q(0.95)
	st.P99 = q(0.99)
	return st
}

// Sample is one row of a registry snapshot: either a counter/gauge value
// or a histogram summary, distinguished by Kind.
type Sample struct {
	Name string
	Kind string // "counter", "gauge" or "histogram"

	// Counter / gauge value; for histograms, the observation count.
	Count int64

	// Histogram-only fields (zero for counters and gauges).
	Hist HistogramStat
}

// Registry is a named set of metrics. The zero value is NOT usable; use
// NewRegistry. A Registry starts enabled.
type Registry struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() int64
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]func() int64{},
	}
	r.enabled.Store(true)
	return r
}

// Enabled reports whether timed instrumentation should run. Counter
// increments are cheap enough to run unconditionally; callers wrap
// clock reads (and anything allocating) in an Enabled() check.
func (r *Registry) Enabled() bool {
	if r == nil {
		return false
	}
	return r.enabled.Load()
}

// SetEnabled toggles timed instrumentation.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent use; the returned pointer is stable and can be cached.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// RegisterGauge installs (or replaces) a gauge computed at snapshot time
// by fn. fn must be safe to call from any goroutine and must not call
// back into the registry.
func (r *Registry) RegisterGauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot returns every metric, sorted by name.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]Sample, 0, len(r.counters)+len(r.hists)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: "counter", Count: c.Value()})
	}
	for name, h := range r.hists {
		st := h.Stat()
		out = append(out, Sample{Name: name, Kind: "histogram", Count: st.Count, Hist: st})
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	r.mu.RUnlock()
	// Gauge callbacks may take their own locks; run them outside ours.
	for name, fn := range gauges {
		out = append(out, Sample{Name: name, Kind: "gauge", Count: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Timer is a convenience for timing a section:
//
//	defer reg.Time(hist)()
//
// It is a no-op (and allocation-free) when the registry is disabled.
func (r *Registry) Time(h *Histogram) func() {
	if !r.Enabled() || h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}
