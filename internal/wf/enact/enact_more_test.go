package enact

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ediflow/internal/database"
	"ediflow/internal/module"
	"ediflow/internal/types"
)

// The "*" macro of §V option 3: ΔR propagates to every future activity of
// a running process.
func TestUPMacroAllActivities(t *testing.T) {
	e, db, reg := newEngine(t)
	reg.Register("noop", func() module.Procedure {
		return &module.Func{ProcName: "noop", RunFn: func(env *module.Env) error { return nil }}
	})
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	xml := `
<process name="macro">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
  </relation>
  <variable name="a" type="string"/>
  <variable name="n1" type="int"/>
  <variable name="n2" type="int"/>
  <body>
    <sequence>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
      <activity name="c1"><assign variable="n1" value="(SELECT COUNT(*) FROM src)"/></activity>
      <activity name="c2"><assign variable="n2" value="(SELECT COUNT(*) FROM src)"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="*" scope="fa-rp"/>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id) VALUES (1)")
	inst, _ := e.Start("macro", "u")
	snap0 := inst.Snapshot()
	// While the process holds, new data must become visible to ALL
	// not-yet-started activities via the macro.
	db.Exec("INSERT INTO src (id) VALUES (2), (3)")
	waitFor(t, func() bool { return inst.Snapshot() > snap0 })
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	n1, _ := inst.Var("n1")
	n2, _ := inst.Var("n2")
	if n1.Int() != 3 || n2.Int() != 3 {
		t.Fatalf("future activities saw n1=%v n2=%v, want 3", n1, n2)
	}
}

// Role resolution: a group-bound activity is performed by a member of the
// group, recorded in the ActivityInstance table.
func TestGroupPerformerResolution(t *testing.T) {
	e, db, _ := newEngine(t)
	db.EnsureUser("alice", "")
	db.EnsureGroup("analysts")
	db.AddUserToGroup("alice", "analysts")
	xml := `
<process name="roles">
  <variable name="a" type="string"/>
  <body>
    <activity name="review" group="analysts"><askUser prompt="go" bindTo="a"/></activity>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	// Starter is not in the group: the registered member performs.
	inst, _ := e.Start("roles", "bob")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	performer, _ := db.QueryString("SELECT username FROM " + database.TableActivityInstance +
		" WHERE activity = 'review' AND process_instance = 1")
	if performer != "alice" {
		t.Fatalf("performer: %q, want alice", performer)
	}
	// Starter in the group: the starter performs.
	inst2, _ := e.Start("roles", "alice")
	inst2.Wait()
	performer, _ = db.QueryString("SELECT username FROM " + database.TableActivityInstance +
		" WHERE activity = 'review' AND process_instance = 2")
	if performer != "alice" {
		t.Fatalf("performer: %q", performer)
	}
}

// Process-based isolation (§VI-A first part): tuples tagged with the
// creating process instance via $pid let an activity see only its own
// process's data — the paper's createdBy pattern.
func TestProcessProvenancePattern(t *testing.T) {
	e, _, _ := newEngine(t)
	xml := `
<process name="prov">
  <relation name="uploads">
    <attribute name="item" type="string"/>
    <attribute name="created_by" type="int"/>
  </relation>
  <variable name="mine" type="int"/>
  <variable name="all" type="int"/>
  <body>
    <sequence>
      <activity name="upload"><update>
        INSERT INTO uploads (item, created_by) VALUES ('data', $pid)
      </update></activity>
      <activity name="own"><assign variable="mine" value="(SELECT COUNT(*) FROM uploads WHERE created_by = $pid)"/></activity>
      <activity name="total"><assign variable="all" value="(SELECT COUNT(*) FROM uploads)"/></activity>
    </sequence>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	// Two sequential instances: the second sees only its own upload via
	// the provenance filter, even though both rows exist.
	i1, _ := e.Start("prov", "u")
	if err := i1.Wait(); err != nil {
		t.Fatal(err)
	}
	i2, _ := e.Start("prov", "u")
	if err := i2.Wait(); err != nil {
		t.Fatal(err)
	}
	mine, _ := i2.Var("mine")
	all, _ := i2.Var("all")
	if mine.Int() != 1 {
		t.Fatalf("instance saw %v own uploads, want 1", mine)
	}
	if all.Int() != 2 {
		t.Fatalf("instance saw %v total uploads, want 2", all)
	}
}

// A procedure's Update error must not crash routing; it is logged and the
// process continues.
func TestDeltaHandlerErrorIsContained(t *testing.T) {
	var logged []string
	var mu sync.Mutex
	e, db, reg := newEngine(t)
	e.logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	reg.Register("fragile", func() module.Procedure {
		return &module.Func{
			ProcName: "fragile",
			RunFn:    func(env *module.Env) error { return nil },
			UpdateFn: func(env *module.Env) error { return fmt.Errorf("handler exploded") },
		}
	})
	if _, err := e.DeployXML(fmt.Sprintf(reactiveXML, "ta-tp")); err != nil {
		t.Fatal(err)
	}
	// Re-register under the expected class name used by reactiveXML.
	reg.Register("reactive", func() module.Procedure {
		return &module.Func{
			ProcName: "reactive",
			RunFn:    func(env *module.Env) error { return nil },
			UpdateFn: func(env *module.Env) error { return fmt.Errorf("handler exploded") },
		}
	})
	inst, _ := e.Start("reactive", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id, v) VALUES (1, 1)")
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logged {
			if strings.Contains(l, "handler exploded") {
				return true
			}
		}
		return false
	})
	// The database stays healthy.
	n, err := db.QueryInt("SELECT COUNT(*) FROM src")
	if err != nil || n != 1 {
		t.Fatalf("%d %v", n, err)
	}
}

// Temporary relations must also work under concurrent AND-split branches.
func TestAndSplitWithSharedVariables(t *testing.T) {
	e, _, _ := newEngine(t)
	xml := `
<process name="parvars">
  <variable name="x" type="int"/>
  <variable name="y" type="int"/>
  <body>
    <sequence>
      <andSplit>
        <branch><activity name="setx"><assign variable="x" value="1"/></activity></branch>
        <branch><activity name="sety"><assign variable="y" value="2"/></activity></branch>
      </andSplit>
      <activity name="checks"><runQuery>SELECT $x + $y</runQuery></activity>
    </sequence>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("parvars", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	x, _ := inst.Var("x")
	y, _ := inst.Var("y")
	if x.Int() != 1 || y.Int() != 2 {
		t.Fatalf("x=%v y=%v", x, y)
	}
}

// Deleting through a process goes to the deletion table and the instance
// sees its own deletes (end-to-end through the enactment layer).
func TestProcessDeleteUsesLogicalDeletion(t *testing.T) {
	e, db, _ := newEngine(t)
	xml := `
<process name="deleter">
  <relation name="stock" primaryKey="id">
    <attribute name="id" type="int"/>
    <attribute name="qty" type="int"/>
  </relation>
  <variable name="left" type="int"/>
  <body>
    <sequence>
      <activity name="fill"><update>INSERT INTO stock (id, qty) VALUES (1, 5), (2, 0), (3, 7)</update></activity>
      <activity name="purge"><update>DELETE FROM stock WHERE qty = 0</update></activity>
      <activity name="count"><assign variable="left" value="(SELECT COUNT(*) FROM stock)"/></activity>
    </sequence>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("deleter", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	left, _ := inst.Var("left")
	if left.Int() != 2 {
		t.Fatalf("instance saw %v rows after its delete, want 2", left)
	}
	// After the instance ended with no concurrent readers, the tuple is
	// physically gone and the deletion table drained.
	waitFor(t, func() bool {
		n, _ := db.QueryInt("SELECT COUNT(*) FROM stock")
		return n == 2
	})
	pend, err := e.Isolation().PendingDeletions("stock")
	if err != nil || pend != 0 {
		t.Fatalf("pending deletions: %d, %v", pend, err)
	}
}

// RowTypes sanity for the activity-instance bookkeeping timestamps.
func TestActivityTimestamps(t *testing.T) {
	e, db, _ := newEngine(t)
	if _, err := e.DeployXML(basicXML); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("basic", "ana")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT start_ts, end_ts FROM " + database.TableActivityInstance + " WHERE activity = 'seed'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("%v %v", res, err)
	}
	start, _ := res.Rows[0][0].AsInt()
	end, _ := res.Rows[0][1].AsInt()
	if start <= 0 || end < start {
		t.Fatalf("timestamps: start=%d end=%d", start, end)
	}
}

// Repairing a query activity must see the propagated delta: the UP action
// advances the activity's visibility before the re-run.
func TestQueryActivityRepairSeesDelta(t *testing.T) {
	e, db, _ := newEngine(t)
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	xml := `
<process name="repair">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
  </relation>
  <variable name="a" type="string"/>
  <body>
    <sequence>
      <activity name="scan"><runQuery>SELECT * FROM src</runQuery></activity>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="scan" scope="ta-rp"/>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	db.Exec("INSERT INTO src (id) VALUES (1)")
	inst, _ := e.Start("repair", "u")
	waitFor(t, func() bool {
		st, _ := inst.ActivityStatus("scan")
		return st == database.StatusCompleted
	})
	// The initial run saw one row.
	if rc, _ := inst.Var("_rowcount"); rc.Int() != 1 {
		t.Fatalf("initial rowcount: %v", rc)
	}
	// Delta arrives while the process holds: the repair re-runs the query
	// and must count the new row.
	db.Exec("INSERT INTO src (id) VALUES (2), (3)")
	waitFor(t, func() bool {
		rc, _ := inst.Var("_rowcount")
		return rc.Int() == 3
	})
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Invalidated activities (untriggered OR-split branch) must not be
// repaired by update propagation.
func TestInvalidatedActivityNotRepaired(t *testing.T) {
	e, db, _ := newEngine(t)
	release := make(chan struct{})
	e.agent = AgentFunc(func(prompt, group string) (string, error) {
		<-release
		return "", nil
	})
	xml := `
<process name="skiprepair">
  <relation name="src" primaryKey="id">
    <attribute name="id" type="int"/>
  </relation>
  <relation name="log">
    <attribute name="who" type="string"/>
  </relation>
  <variable name="a" type="string"/>
  <body>
    <sequence>
      <orSplit>
        <branch condition="1 &gt; 2">
          <activity name="never"><update>INSERT INTO log (who) VALUES ('never')</update></activity>
        </branch>
        <branch>
          <activity name="always"><update>INSERT INTO log (who) VALUES ('always')</update></activity>
        </branch>
      </orSplit>
      <activity name="hold"><askUser prompt="wait" bindTo="a"/></activity>
    </sequence>
  </body>
  <updatePropagation relation="src" activity="never" scope="ta-rp"/>
  <updatePropagation relation="src" activity="always" scope="ta-rp"/>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("skiprepair", "u")
	waitFor(t, func() bool {
		st, _ := inst.ActivityStatus("always")
		return st == database.StatusCompleted
	})
	// A delta on src repairs "always" (re-runs its INSERT) but must not
	// touch the invalidated "never".
	db.Exec("INSERT INTO src (id) VALUES (1)")
	waitFor(t, func() bool {
		n, _ := db.QueryInt("SELECT COUNT(*) FROM log WHERE who = 'always'")
		return n == 2
	})
	never, _ := db.QueryInt("SELECT COUNT(*) FROM log WHERE who = 'never'")
	if never != 0 {
		t.Fatalf("invalidated activity was repaired: %d rows", never)
	}
	close(release)
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A FLOAT variable holding an integral value substitutes as a FLOAT
// literal, so 7 / $r divides as FLOATs, the way 7 / 2.0 does.
func TestIntegralFloatVariableStaysFloat(t *testing.T) {
	e, _, _ := newEngine(t)
	xml := `
<process name="ratio">
  <variable name="r" type="float"/>
  <variable name="q" type="float"/>
  <body>
    <sequence>
      <activity name="setr"><assign variable="r" value="2.0"/></activity>
      <activity name="div"><assign variable="q" value="7 / $r"/></activity>
    </sequence>
  </body>
</process>`
	if _, err := e.DeployXML(xml); err != nil {
		t.Fatal(err)
	}
	inst, _ := e.Start("ratio", "u")
	if err := inst.Wait(); err != nil {
		t.Fatal(err)
	}
	if q, _ := inst.Var("q"); q.Kind() != types.KindFloat || q.Float() != 3.5 {
		t.Fatalf("7 / $r with r = 2.0 gave %v, want 3.5", q)
	}
}
