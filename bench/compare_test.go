package main

import "testing"

func TestCompareMetric(t *testing.T) {
	p50 := metricSpec{Name: "interaction_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}

	if c := compareMetric(p50, steady, []float64{10.4, 10.5, 10.3, 10.45, 10.35}); c.Verdict != verdictOK {
		t.Errorf("4%% slower within a 10%% bound: %+v", c)
	}
	if c := compareMetric(p50, steady, []float64{11.5, 11.6, 11.4, 11.55, 11.45}); c.Verdict != verdictRegression {
		t.Errorf("15%% slower past a 10%% bound: %+v", c)
	}
	if c := compareMetric(rate, steady, []float64{8.5, 8.6, 8.4, 8.55, 8.45}); c.Verdict != verdictRegression || c.Change < 0.14 {
		t.Errorf("15%% less throughput is worse: %+v", c)
	}
	if c := compareMetric(rate, steady, []float64{12, 12.1, 11.9, 12.05, 11.95}); c.Verdict != verdictOK || c.Change > 0 {
		t.Errorf("more throughput is better: %+v", c)
	}
	noisy := []float64{8, 12, 9, 13, 10}
	if c := compareMetric(p50, steady, noisy); c.Verdict != verdictUnresolved {
		t.Errorf("spread wider than the bound cannot resolve a change: %+v", c)
	}
	if c := compareMetric(p50, noisy, []float64{5, 6, 5.5, 7, 6.5}); c.Verdict != verdictOK {
		t.Errorf("every new run better than every base run is resolved: %+v", c)
	}
	if c := compareMetric(p50, []float64{10}, []float64{10.5}); c.Verdict != verdictOK || c.BaseSpread != 0 {
		t.Errorf("single runs compare medians only: %+v", c)
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(p50 float64) *resultFile {
		f := &resultFile{}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, &result{Workload: "analytic_redraw",
				Metrics: map[string]metricValue{"interaction_ms_p50": {p50 + float64(i)*0.01, "ms"}}})
		}
		return f
	}
	rows := compareFiles(mk(100), mk(130))
	if len(rows) != 1 || rows[0].Workload != "analytic_redraw" || rows[0].Verdict != verdictRegression {
		t.Errorf("rows = %+v", rows)
	}
}
