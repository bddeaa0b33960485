package main

import (
	"testing"
)

// Every workload at 1/100 of its counts (and a fiftieth of its data) must
// emit every metric BENCHMARK.json names, lose no operation and pass its
// own checks, in both passes.
func TestWorkloadsSmallScale(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{Workload: name, Seed: 3, Scale: runSeconds / 100.0, Data: 0.02,
					Trace: traced, SetupReps: 1, OutDir: t.TempDir()}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("traced=%v: check %q failed: %s", traced, c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Interactions < 1 {
					t.Errorf("traced=%v: correct %v, %d attempted, %d failed, %d interactions",
						traced, res.Correct, res.Attempted, res.Failed, res.Interactions)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, s := range want {
					v, ok := res.Metrics[s.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, s.Name)
					} else if v.Unit != s.Unit {
						t.Errorf("traced=%v: metric %s in %q, want %q", traced, s.Name, v.Unit, s.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, v.Value)
					}
				}
				if traced {
					if c := res.Info["self_time_coverage"]; c < 0.95 || c > 1.05 {
						t.Errorf("self times cover %.3f of the interactions, want 0.95–1.05", c)
					}
				}
			}
		})
	}
}

// The program sees only generated inputs: the same seed must give the same
// statement stream and another seed another.
func TestInputHashFollowsSeed(t *testing.T) {
	hash := func(seed uint64) string {
		res, err := runWorkload(runConfig{Workload: "analytic_redraw", Seed: seed, Scale: runSeconds / 100.0, Data: 0.02,
			SetupReps: 1, OutDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return res.InputHash
	}
	a, b, c := hash(1), hash(1), hash(2)
	if a != b {
		t.Errorf("seed 1 gave %s then %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both gave %s", a)
	}
}
