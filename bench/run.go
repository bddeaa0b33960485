package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ediflow/internal/metrics"
	"ediflow/internal/types"
)

// runConfig describes one pass of one workload in one process.
type runConfig struct {
	Workload string
	Seed     uint64
	// Scale is the run budget in seconds: every measured-region count is a
	// fixed number of operations per second of budget times Scale. The
	// frozen benchmark runs at run_seconds of BENCHMARK.json, the traced
	// pass at a third of it and the tests at a hundredth.
	Scale float64
	// Data multiplies set-up volumes. It is 1 everywhere except in the
	// tests, so that live_heap_mb and setup_s describe one fixed data set.
	Data float64
	// Trace turns on spans, the fs/net/conn hooks and the layer probes.
	Trace bool
	// SetupReps is how many times the set-up runs; setup_s is the median and
	// the measured region runs on the last one.
	SetupReps int
	// OutDir holds temporary database directories and trace files.
	OutDir string
}

// count scales a measured-region count, never below min.
func (c runConfig) count(base, min int) int {
	n := int(float64(base)*c.Scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// volume scales a set-up volume, never below min.
func (c runConfig) volume(base, min int) int {
	n := int(float64(base)*c.Data + 0.5)
	if n < min {
		n = min
	}
	return n
}

// env is what one set-up/measure/verify cycle shares.
type env struct {
	cfg    runConfig
	tr     *tracer   // nil in the untraced pass
	hooks  *hooks    // nil in the untraced pass
	rec    *recorder // nil in the untraced pass
	rg     *region   // nil in the untraced pass
	hash   *inputHash
	checks checks
	dir    string // scratch directory of this cycle
	// late holds layer metrics that only verify can measure (recovery time).
	late map[string]float64
	// info holds figures that explain the run without being frozen metrics.
	info map[string]float64
}

// stmt fingerprints one statement the workload is about to issue and, in
// the traced pass, records it for the probes.
func (e *env) stmt(kind, sql string, args ...types.Value) {
	e.hash.stmt(sql, args...)
	e.rec.stmt(kind, sql, args)
}

// measured is what a workload's measured region reports.
type measured struct {
	// ops is the workload's fixed operation count: the divisor of
	// alloc_kb_per_op and of every per-op layer ratio.
	ops       int
	attempted int
	failed    int
	// latencies holds one sample per successful interaction.
	latencies []time.Duration
	// throughput is operations (or events) per second by the median of six
	// equal segments.
	throughput float64
}

// workload is one of the four fixed scenarios.
type workload interface {
	// setup builds schema, data, connections, mirrors and processes and
	// runs the fixed-count warm-up.
	setup(e *env) error
	// measure runs the measured region.
	measure(e *env) (*measured, error)
	// verify checks the outputs against the driver's own model. It may
	// close and reopen the database.
	verify(e *env, m *measured)
	// registries lists the program registries whose counters the traced
	// pass reads around the measured region.
	registries() []*metrics.Registry
	// layers fills the per-layer metrics of the traced pass from the spans,
	// the counters of e.rg and the probes.
	layers(e *env, m *measured, out map[string]float64) error
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "edit_chain_wire":
		return &editChain{}, nil
	case "analytic_redraw":
		return &analytic{}, nil
	case "firehose_reactive":
		return &firehose{}, nil
	case "mixed_readwrite":
		return &mixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass prints.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Scale        float64                `json:"scale"`
	Trace        bool                   `json:"trace"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Interactions int                    `json:"interactions"`
	InputHash    string                 `json:"input_hash"`
	Metrics      map[string]metricValue `json:"metrics"`
	Checks       checks                 `json:"checks"`
	// Info carries figures that explain a run but are not frozen metrics:
	// measured seconds, per-repetition set-up times, self-time coverage.
	Info map[string]float64 `json:"info"`
}

// runWorkload executes one pass: SetupReps set-ups, one measured region on
// the last, verification, and in the traced pass the layer metrics.
func runWorkload(cfg runConfig) (*result, error) {
	if cfg.SetupReps < 1 {
		cfg.SetupReps = 1
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale, Trace: cfg.Trace,
		Metrics: map[string]metricValue{}, Info: map[string]float64{}}

	var w workload
	var e *env
	var setups []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		dir, err := os.MkdirTemp(cfg.OutDir, "db-"+cfg.Workload+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		e = &env{cfg: cfg, hash: newInputHash(), dir: dir, late: map[string]float64{}, info: map[string]float64{}}
		if cfg.Trace {
			e.tr = newTracer()
			e.hooks = newHooks()
			e.rec = &recorder{kinds: map[string]*recorded{}}
		}
		if w, err = newWorkload(cfg.Workload); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		s := time.Since(t0).Seconds()
		setups = append(setups, s)
		res.Info[fmt.Sprintf("setup_s_rep%d", rep)] = s
		if rep < cfg.SetupReps-1 {
			w.close()
			runtime.GC()
		}
	}
	defer w.close()

	// Two forced collections: the live heap is read at the end of set-up,
	// where the data volume is fixed, and the measured region starts from
	// a collected heap whatever the set-up left behind.
	live := settledHeap()
	if cfg.Trace {
		e.rg = &region{c0: readAll(w.registries()), h0: e.hooks.read()}
	}
	before := readProc()
	t0 := time.Now()
	m, err := w.measure(e)
	elapsed := time.Since(t0)
	after := readProc()
	goroutines := runtime.NumGoroutine()
	if cfg.Trace && err == nil {
		e.rg.start, e.rg.end = t0, t0.Add(elapsed)
		e.rg.c1, e.rg.h1 = readAll(w.registries()), e.hooks.read()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: measured region: %w", cfg.Workload, err)
	}
	layer := map[string]float64{}
	if cfg.Trace {
		// Before verify: the probes need the server and the mirror alive,
		// and verify ends by closing the database to reopen it.
		if err := w.layers(e, m, layer); err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", cfg.Workload, err)
		}
	}
	w.verify(e, m)
	for k, v := range e.late {
		layer[k] = v
	}
	for k, v := range e.info {
		res.Info[k] = v
	}

	lat := sortedCopy(durationsMS(m.latencies))
	res.Attempted, res.Failed, res.Interactions = m.attempted, m.failed, len(lat)
	res.InputHash = e.hash.sum()
	res.Info["measured_s"] = elapsed.Seconds()
	res.Info["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	res.Info["ops"] = float64(m.ops)
	e.checks.add("no failed operations", m.failed == 0, "%d of %d failed", m.failed, m.attempted)

	values := map[string]float64{
		"setup_s":            median(setups),
		"interaction_ms_p50": quantile(lat, 0.50),
		"interaction_ms_p90": quantile(lat, 0.90),
		"throughput_per_s":   m.throughput,
		"alloc_kb_per_op":    float64(after.totalAlloc-before.totalAlloc) / 1024 / float64(m.ops),
		"live_heap_mb":       float64(live) / (1 << 20),
	}
	if !cfg.Trace {
		for _, s := range endToEnd {
			res.Metrics[s.Name] = metricValue{values[s.Name], s.Unit}
		}
	} else {
		ops := float64(m.ops)
		layer["proc.goroutines_end"] = float64(goroutines)
		layer["proc.cpu_ms_per_op"] = float64(after.cpu-before.cpu) / float64(time.Millisecond) / ops
		layer["proc.gc_cycles_per_kop"] = float64(after.numGC-before.numGC) * 1000 / ops
		layer["proc.gc_pause_ms_total"] = float64(after.pauseNS-before.pauseNS) / 1e6
		spans := e.tr.snapshot()
		res.Info["self_time_coverage"] = selfCoverage(spans)
		res.Info["spans"] = float64(len(spans))
		// The traced pass's own interaction median, which the parent sets
		// against the untraced pass to get trace.overhead_frac.
		res.Info["interaction_ms_p50"] = values["interaction_ms_p50"]
		if err := e.tr.writeFile(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return nil, err
		}
		known := specByName(perLayer)
		for name := range layer {
			if _, ok := known[name]; !ok {
				return nil, fmt.Errorf("%s reported unknown layer metric %q", cfg.Workload, name)
			}
		}
		for _, s := range perLayer {
			res.Metrics[s.Name] = metricValue{layer[s.Name], s.Unit}
		}
	}
	res.Checks = e.checks
	res.Correct = e.checks.allOK()
	return res, nil
}
