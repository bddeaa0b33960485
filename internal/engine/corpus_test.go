package engine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"ediflow/internal/types"
)

// The statement corpus: every statement the differential and planner
// suites execute, one line each, in execution order, in
// testdata/statements.golden. The golden is the suites' reference — it
// replaced running each statement a second time on the tree-walk
// interpreter — and is rewritten only by
//
//	go test ./internal/engine -run TestStatementCorpus -update
//
// so a change in what any statement returns shows up as a diff of it.

var update = flag.Bool("update", false, "rewrite testdata/statements.golden from this run")

const goldenPath = "testdata/statements.golden"

// corpusSuites are the suites whose statements the golden holds, in file
// order.
var corpusSuites = []struct {
	name string
	run  func(*testing.T)
}{
	{"VMDifferentialStatements", TestVMDifferentialStatements},
	{"VMDifferentialUpdates", TestVMDifferentialUpdates},
	{"ParallelDifferential", TestParallelDifferential},
	{"OrderByAggregate", TestOrderByAggregate},
	{"VMBatchBoundaries", TestVMBatchBoundaries},
	{"ExplainAccessPaths", TestExplainAccessPaths},
	{"CreateIndexBackfillAndPlannerPickup", TestCreateIndexBackfillAndPlannerPickup},
	{"InFastPathDeduplicates", TestInFastPathDeduplicates},
	{"IndexMaintenanceAcrossMutationsAndReplay", TestIndexMaintenanceAcrossMutationsAndReplay},
	{"PlanCacheHitMissAndDDLInvalidation", TestPlanCacheHitMissAndDDLInvalidation},
	{"ScanAccountingCountsExaminedRows", TestScanAccountingCountsExaminedRows},
	{"TopKMatchesFullSort", TestTopKMatchesFullSort},
	{"MultiColumnHashJoin", TestMultiColumnHashJoin},
	{"JoinProbesStorageIndex", TestJoinProbesStorageIndex},
	{"UniqueColumnPath", TestUniqueColumnPath},
	{"ExplainRoundTripThroughPrinter", TestExplainRoundTripThroughPrinter},
	{"ExplainPrintsExecutorPlan", TestExplainPrintsExecutorPlan},
}

// corpus, while TestStatementCorpus drives a suite, receives one line
// per statement execution (execSQL) and checks it against the suite's
// golden section as it arrives.
var corpus *corpusRun

type corpusRun struct {
	t        testing.TB
	want     []string // the suite's golden lines; nil when rewriting
	lines    []string
	muted    int // > 0 while a suite repeats a statement the corpus holds
	diverged int
}

func (c *corpusRun) record(sql string, args []types.Value, res *Result, err error, scanned int64) {
	if c.muted > 0 {
		return
	}
	line := goldenLine(sql, args, res, err, scanned)
	if i := len(c.lines); c.want != nil && (i >= len(c.want) || c.want[i] != line) {
		want := "(none)"
		if i < len(c.want) {
			want = c.want[i]
		}
		if c.diverged++; c.diverged <= 10 {
			c.t.Errorf("statement %d diverges from %s\ngot:  %s\nwant: %s", i+1, goldenPath, line, want)
		}
	}
	c.lines = append(c.lines, line)
}

// again runs a repeat of a statement — the pooled rerun, another width —
// without recording it: the suite compares it with the recorded run.
func again(run func() (*Result, error)) (*Result, error) {
	if corpus != nil {
		corpus.muted++
		defer func() { corpus.muted-- }()
	}
	return run()
}

// goldenLine renders one execution: the text, the arguments, then the
// error or the rows (kind and rendering of every value, in order), then
// the rows scanned. A text or row list over 240 bytes is written as its
// head, its length and a SHA-256 prefix of the whole, which keeps the
// comparison exact and the file small.
func goldenLine(sql string, args []types.Value, res *Result, err error, scanned int64) string {
	var sb strings.Builder
	sb.WriteString(clip(fmt.Sprintf("%q", sql)))
	for _, a := range args {
		fmt.Fprintf(&sb, " ?%s:%q", a.Kind(), a.String())
	}
	if err != nil {
		fmt.Fprintf(&sb, " => error %q", err.Error())
	} else {
		var rows strings.Builder
		for _, r := range res.Rows {
			rows.WriteString(" [")
			for i, v := range r {
				if i > 0 {
					rows.WriteByte(' ')
				}
				fmt.Fprintf(&rows, "%s:%q", v.Kind(), v.String())
			}
			rows.WriteByte(']')
		}
		fmt.Fprintf(&sb, " => %d rows%s", len(res.Rows), clip(rows.String()))
	}
	fmt.Fprintf(&sb, " scanned %d", scanned)
	return sb.String()
}

func clip(s string) string {
	if len(s) <= 240 {
		return s
	}
	head := 80
	for !utf8.RuneStart(s[head]) {
		head--
	}
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%s… [%d B sha256 %x]", s[:head], len(s), sum[:8])
}

// TestStatementCorpus runs every corpus suite with each statement it
// executes checked against its line of the golden, in order.
func TestStatementCorpus(t *testing.T) {
	want := map[string][]string{}
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var section string
		for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if name, ok := strings.CutPrefix(l, "== "); ok {
				section = name
				want[name] = []string{}
				continue
			}
			want[section] = append(want[section], l)
		}
	}
	var out strings.Builder
	for _, s := range corpusSuites {
		t.Run(s.name, func(t *testing.T) {
			c := &corpusRun{t: t, want: want[s.name]}
			if !*update && c.want == nil {
				t.Fatalf("%s has no section %s", goldenPath, s.name)
			}
			corpus = c
			defer func() { corpus = nil }()
			s.run(t)
			if !*update && len(c.lines) != len(c.want) {
				t.Errorf("%d statements, %s holds %d", len(c.lines), goldenPath, len(c.want))
			}
			fmt.Fprintf(&out, "== %s\n", s.name)
			for _, l := range c.lines {
				out.WriteString(l)
				out.WriteByte('\n')
			}
		})
	}
	if *update && !t.Failed() {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
