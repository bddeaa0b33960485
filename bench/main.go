// Command bench is the frozen benchmark of the edit → mirror → redraw path
// (see README.md). One command runs four fixed workloads, checks every
// output against the driver's own model and prints six end-to-end metrics
// per workload plus, from a separate traced pass, the per-layer metrics.
//
//	bash bench/run.sh -seed 1                  every workload, both passes
//	bash bench/run.sh -seed 1 -runs 5          five untraced passes per workload (seeds 1..5)
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -compare a.json b.json
//
// Every pass runs in a fresh child process re-executed from this binary, so
// no pass inherits another's heap or GC pacing.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// runSeconds is run_seconds of BENCHMARK.json: the budget the workload
	// counts are sized for.
	runSeconds = 15
	// traceShare is how much of the untraced counts the traced pass runs.
	traceShare = 3
	// setupReps is how many times an untraced pass sets up; setup_s is the
	// median.
	setupReps = 3
	// childTimeout is below the 180 s a single run may take.
	childTimeout = 170 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (driver mode) and print one JSON line")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", runSeconds, "run budget the operation counts are scaled to")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: untraced passes per workload, on seeds seed, seed+1, …")
		out      = flag.String("out", "", "all-workloads mode: result file (default <out dir>/result-seed<N>.json)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		child    = flag.Bool("child", false, "internal: run one pass in this process")
		scale    = flag.Float64("scale", runSeconds, "internal: count scale of a child pass")
		reps     = flag.Int("reps", setupReps, "internal: set-up repetitions of a child pass")
	)
	flag.Parse()
	switch {
	case *child:
		os.Exit(childMain(*workload, *seed, *scale, *trace == 1, *reps))
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *workload != "":
		os.Exit(driverMain(*workload, *seed, *seconds, *trace == 1))
	default:
		os.Exit(allMain(*seed, *seconds, *runs, *out))
	}
}

// outDir is where temporary databases, traces and result files go:
// bench/out whether the command runs from the repository root or from
// bench/ itself.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// childMain runs one pass in this process and prints its result as the
// last line of standard output.
func childMain(workload string, seed uint64, scale float64, trace bool, reps int) int {
	res, err := runWorkload(runConfig{Workload: workload, Seed: seed, Scale: scale, Data: 1,
		Trace: trace, SetupReps: reps, OutDir: outDir()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return 0
}

// spawn runs one pass in a fresh child process and returns its result.
func spawn(workload string, seed uint64, scale float64, trace bool, reps int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(t), "-reps", fmt.Sprint(reps))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: pass exceeded %v", workload, childTimeout)
		}
		return nil, fmt.Errorf("%s: pass failed: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: unreadable result: %w", workload, err)
	}
	return &res, nil
}

// untracedPass is the pass the end-to-end metrics come from.
func untracedPass(workload string, seed uint64, seconds float64) (*result, error) {
	return spawn(workload, seed, seconds, false, setupReps)
}

// tracedPass runs the workload twice at a third of its counts, in two fresh
// processes: once untraced, once with spans, hooks and probes on. The
// per-layer metrics come from the second; trace.overhead_frac is how much
// slower its interaction median is than the first's.
func tracedPass(workload string, seed uint64, seconds float64) (*result, error) {
	plain, err := spawn(workload, seed, seconds/traceShare, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := spawn(workload, seed, seconds/traceShare, true, 1)
	if err != nil {
		return nil, err
	}
	base := plain.Metrics["interaction_ms_p50"].Value
	if base > 0 {
		traced.Metrics["trace.overhead_frac"] = metricValue{traced.Info["interaction_ms_p50"]/base - 1, "ratio"}
	}
	traced.Correct = traced.Correct && plain.Correct
	return traced, nil
}

// driverMain is the contract with the benchmark driver: one workload, one
// pass, one JSON object with exactly correct/attempted/failed/metrics as
// the last line of standard output.
func driverMain(workload string, seed uint64, seconds float64, trace bool) int {
	if _, err := newWorkload(workload); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	pass := untracedPass
	if trace {
		pass = tracedPass
	}
	res, err := pass(workload, seed, seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s: %s\n", workload, c.Name, c.Detail)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d interactions, input_hash %s\n", workload, seed, res.Interactions, res.InputHash)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// host is the fingerprint every result file carries, so that numbers from
// different machines or commits are never compared silently.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func fingerprint(seed uint64, seconds float64) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Host   host      `json:"host"`
	Runs   []*result `json:"runs"`   // untraced passes: the end-to-end metrics
	Traced []*result `json:"traced"` // one traced pass per workload: the per-layer metrics
}

// allMain runs every workload: runs untraced passes each (seeds seed,
// seed+1, …) and one traced pass, prints the metrics and writes the result
// file.
func allMain(seed uint64, seconds float64, runs int, out string) int {
	file := resultFile{Host: fingerprint(seed, seconds)}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s\n", file.Host.NProc, file.Host.GOMAXPROCS,
		file.Host.CPUModel, file.Host.GoVersion, file.Host.Commit)
	ok := true
	for _, w := range workloadNames {
		for i := 0; i < runs; i++ {
			res, err := untracedPass(w, seed+uint64(i), seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			file.Runs = append(file.Runs, res)
			ok = printPass(res, endToEnd) && ok
		}
		res, err := tracedPass(w, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		file.Traced = append(file.Traced, res)
		ok = printPass(res, perLayer) && ok
	}
	if out == "" {
		out = filepath.Join(outDir(), fmt.Sprintf("result-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = errors.Join(os.MkdirAll(filepath.Dir(out), 0o755), os.WriteFile(out, data, 0o644))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println("results written to", out)
	if !ok {
		return 1
	}
	return 0
}

// printPass prints one pass for a human and reports whether it was correct.
func printPass(res *result, specs []metricSpec) bool {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("\n%s  seed %d  %s pass  scale %.3g  input_hash %s\n", res.Workload, res.Seed, pass, res.Scale, res.InputHash)
	fmt.Printf("  operations attempted %d, failed %d; interactions sampled %d; correct %v\n",
		res.Attempted, res.Failed, res.Interactions, res.Correct)
	for _, s := range specs {
		if v, ok := res.Metrics[s.Name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", s.Name, v.Value, v.Unit)
		}
	}
	info := make([]string, 0, len(res.Info))
	for k := range res.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("  (%s = %.4g)\n", k, res.Info[k])
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Printf("  CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
	return res.Correct
}
