package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is the outcome of comparing one workload × metric pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row of a -compare report.
type comparison struct {
	Workload, Metric string
	Base, New        float64 // medians
	Change           float64 // relative change in the metric's worse direction: > 0 is worse
	BaseSpread       float64 // (Q3 − Q1) ÷ median of the base runs; 0 with fewer than two runs
	NewSpread        float64
	Bound            float64
	Verdict          verdict
}

// compareMetric judges one metric: a regression when the new median is
// worse than the base median by more than the bound; unresolved when
// either side's quartile spread exceeds the bound (the runs cannot resolve
// a change of that size), unless every new run reads better than every
// base run.
func compareMetric(spec metricSpec, base, next []float64) comparison {
	c := comparison{Metric: spec.Name, Base: median(base), New: median(next),
		BaseSpread: quartileSpread(base), NewSpread: quartileSpread(next), Bound: spec.Bound, Verdict: verdictOK}
	if c.Base != 0 {
		c.Change = (c.New - c.Base) / c.Base
		if spec.Better == "higher" {
			c.Change = -c.Change
		}
	}
	if c.BaseSpread > spec.Bound || c.NewSpread > spec.Bound {
		c.Verdict = verdictUnresolved
		allBetter := true
		for _, n := range next {
			for _, b := range base {
				if spec.Better == "lower" && n >= b || spec.Better == "higher" && n <= b {
					allBetter = false
				}
			}
		}
		if allBetter {
			c.Verdict = verdictOK
		}
	} else if c.Change > spec.Bound {
		c.Verdict = verdictRegression
	}
	return c
}

// compareFiles compares every workload × end-to-end metric of two result
// files.
func compareFiles(base, next *resultFile) []comparison {
	collect := func(f *resultFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	b, n := collect(base), collect(next)
	var rows []comparison
	for _, w := range workloadNames {
		for _, spec := range endToEnd {
			if len(b[w][spec.Name]) == 0 || len(n[w][spec.Name]) == 0 {
				continue
			}
			c := compareMetric(spec, b[w][spec.Name], n[w][spec.Name])
			c.Workload = w
			rows = append(rows, c)
		}
	}
	return rows
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints the per workload × metric change of b against a and
// exits non-zero when any metric is past its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
		return 2
	}
	base, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	next, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bh, nh := base.Host, next.Host
	if bh.NProc != nh.NProc || bh.GOMAXPROCS != nh.GOMAXPROCS || bh.CPUModel != nh.CPUModel || bh.GoVersion != nh.GoVersion || bh.Seconds != nh.Seconds {
		fmt.Printf("WARNING: different hosts or settings — base %+v, new %+v\n", bh, nh)
	}
	fmt.Printf("base: commit %s, %d runs;  new: commit %s, %d runs\n", bh.Commit, len(base.Runs), nh.Commit, len(next.Runs))
	fmt.Printf("%-18s %-20s %14s %14s %9s %8s %8s %7s  %s\n", "workload", "metric", "base median", "new median", "worse by", "spread", "spread'", "bound", "verdict")
	regressions := 0
	for _, c := range compareFiles(base, next) {
		fmt.Printf("%-18s %-20s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n", c.Workload, c.Metric,
			c.Base, c.New, 100*c.Change, 100*c.BaseSpread, 100*c.NewSpread, 100*c.Bound, c.Verdict)
		if c.Verdict == verdictRegression {
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Printf("%d metric(s) past their bound\n", regressions)
		return 1
	}
	return 0
}
